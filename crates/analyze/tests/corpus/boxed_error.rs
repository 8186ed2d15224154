// Box<dyn Error> erases failure kinds at a crate API; fallible paths
// must use athena_types::error::AthenaError.
fn load() -> Result<u8, Box<dyn std::error::Error>> {
    Ok(7)
}
