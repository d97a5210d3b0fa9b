//! Data transfer (paper §VII): the Table III import/export formats, the
//! two-step `exportSize` → `export` protocol, `exportHint`, and the
//! opaque serialize/deserialize API.
//!
//! Run with: `cargo run --release --example import_export`

use graphblas::{Format, Index, Matrix, Vector, VectorFormat};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Import a matrix from CSR arrays (Table III: GrB_CSR_MATRIX).
    let m = Matrix::<f64>::import(
        3,
        3,
        Format::Csr,
        Some(vec![0, 2, 3, 5]),
        Some(vec![0, 2, 1, 0, 2]),
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )?;
    println!("imported CSR matrix:\n{}", m.to_display_string()?);
    // Every import converts to the one internal store, so the hint is CSR.
    println!("export hint (the internal format): {:?}", m.export_hint());

    // Export through every matrix format.
    for fmt in [Format::Csr, Format::Csc, Format::Coo] {
        let (indptr, indices, values) = m.export(fmt)?;
        println!(
            "{fmt:?}: indptr {indptr:?}\n       indices {indices:?}\n       values {values:?}"
        );
    }

    // The two-step protocol: size first, then caller-allocated buffers
    // (a memory-mapped file would work the same way).
    let (np, ni, nv) = m.export_size(Format::Csr)?;
    let mut indptr: Vec<Index> = Vec::with_capacity(np);
    let mut indices: Vec<Index> = Vec::with_capacity(ni);
    let mut values: Vec<f64> = Vec::with_capacity(nv);
    m.export_into(Format::Csr, &mut indptr, &mut indices, &mut values)?;
    println!("\ntwo-step export sizes: indptr {np}, indices {ni}, values {nv}");

    // Round-trip through the opaque serialization API (§VII.B).
    let bytes = m.serialize()?;
    println!(
        "serialized into {} bytes (bound was {})",
        bytes.len(),
        m.serialize_size()?
    );
    let back = Matrix::<f64>::deserialize(&bytes)?;
    assert_eq!(back.extract_tuples()?, m.extract_tuples()?);
    println!("deserialized matrix matches the original");

    // Vectors: dense import, sparse export.
    let v = Vector::<i32>::import(4, VectorFormat::Dense, None, vec![10, 20, 30, 40])?;
    println!("\ndense vector hint: {:?}", v.export_hint());
    let (vi, vv) = v.export(VectorFormat::Sparse)?;
    println!("as sparse: indices {vi:?}, values {vv:?}");
    let vbytes = v.serialize()?;
    let vback = Vector::<i32>::deserialize(&vbytes)?;
    assert_eq!(vback.extract_tuples()?, v.extract_tuples()?);

    println!("\nimport/export OK");
    Ok(())
}
