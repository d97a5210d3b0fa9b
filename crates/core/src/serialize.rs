//! Opaque serialization (§VII.B): `serializeSize` / `serialize` /
//! `deserialize` for matrices, vectors, and scalars.
//!
//! The byte format is deliberately *implementation-defined* (the spec
//! says the stream "need not be interpretable by … other implementations
//! of the GraphBLAS"); ours is a versioned container:
//!
//! ```text
//! magic "GRBX" | version u32 | kind u8 | type-name (u16 len + utf8)
//! | dims (u64 × 2) | nnz u64 | indptr u64* | indices u64* | values
//! | fnv1a-checksum u64
//! ```
//!
//! Deserializing into the wrong element type is a domain mismatch;
//! corruption is an `InvalidObject` execution error.

use crate::bytesio::{ByteReadExt, ByteWriteExt};
use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::transfer::{Format, VectorFormat};
use crate::types::{Index, ValueType};
use crate::vector::Vector;

const MAGIC: &[u8; 4] = b"GRBX";
const VERSION: u32 = 2;

const KIND_MATRIX: u8 = 0;
const KIND_VECTOR: u8 = 1;
const KIND_SCALAR: u8 = 2;

/// Element types that can enter the serialized stream. Implemented for
/// all predefined GraphBLAS domains; user-defined types can implement it
/// to become serializable.
pub trait SerializableValue: ValueType {
    /// Appends this value's encoding.
    fn write_bytes(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the buffer; `None` on underflow.
    fn read_bytes(input: &mut &[u8]) -> Option<Self>;
    /// Encoded size in bytes (used by `serializeSize`).
    fn encoded_len(&self) -> usize;
}

macro_rules! impl_serde_numeric {
    ($($t:ty),*) => {
        $(impl SerializableValue for $t {
            fn write_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_bytes(input: &mut &[u8]) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                if input.len() < N {
                    return None;
                }
                let mut b = [0u8; N];
                b.copy_from_slice(&input[..N]);
                input.advance(N);
                Some(<$t>::from_le_bytes(b))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_serde_numeric!(i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

impl SerializableValue for bool {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        if input.is_empty() {
            return None;
        }
        let v = input[0];
        input.advance(1);
        Some(v != 0)
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl SerializableValue for usize {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.put_u64_le(*self as u64);
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        if input.len() < 8 {
            return None;
        }
        Some(input.get_u64_le() as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl SerializableValue for isize {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.put_i64_le(*self as i64);
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        if input.len() < 8 {
            return None;
        }
        Some(input.get_i64_le() as isize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn write_header(out: &mut Vec<u8>, kind: u8, type_name: &str) {
    out.extend_from_slice(MAGIC);
    out.put_u32_le(VERSION);
    out.push(kind);
    out.put_u16_le(type_name.len() as u16);
    out.extend_from_slice(type_name.as_bytes());
}

fn corrupt(detail: &str) -> Error {
    Error::exec(
        ExecErrorKind::InvalidObject,
        format!("deserialize: corrupt or foreign stream ({detail})"),
    )
}

fn read_header(input: &mut &[u8], expect_kind: u8, type_name: &str) -> GrbResult {
    if input.len() < 4 + 4 + 1 + 2 || &input[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    input.advance(4);
    let version = input.get_u32_le();
    if version != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let kind = input.get_u8();
    if kind != expect_kind {
        return Err(ApiError::DomainMismatch.into());
    }
    let name_len = input.get_u16_le() as usize;
    if input.len() < name_len {
        return Err(corrupt("truncated type name"));
    }
    let name = std::str::from_utf8(&input[..name_len]).map_err(|_| corrupt("bad type name"))?;
    if name != type_name {
        return Err(ApiError::DomainMismatch.into());
    }
    input.advance(name_len);
    Ok(())
}

fn finish(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a(&body);
    body.put_u64_le(checksum);
    body
}

fn verify_and_strip(bytes: &[u8]) -> GrbResult<&[u8]> {
    if bytes.len() < 8 {
        return Err(corrupt("too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut tail_reader = tail;
    let stored = tail_reader.get_u64_le();
    if fnv1a(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(body)
}

fn read_index_array(input: &mut &[u8], n: usize) -> GrbResult<Vec<Index>> {
    if input.len() < n * 8 {
        return Err(corrupt("truncated index array"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(input.get_u64_le() as usize);
    }
    Ok(out)
}

impl<T: SerializableValue> Matrix<T> {
    /// `GrB_Matrix_serializeSize`: an upper bound on the buffer size
    /// [`Matrix::serialize`] will produce.
    pub fn serialize_size(&self) -> GrbResult<usize> {
        let (p, i, v) = self.export(Format::Csr)?;
        let values_len: usize = v.iter().map(|x| x.encoded_len()).sum();
        let name = std::any::type_name::<T>();
        Ok(4 + 4 + 1 + 2 + name.len() + 8 * 3 + p.len() * 8 + i.len() * 8 + values_len + 8)
    }

    /// `GrB_Matrix_serialize`: produces the opaque byte stream.
    pub fn serialize(&self) -> GrbResult<Vec<u8>> {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        let (p, i, v) = self.export(Format::Csr)?;
        let mut out = Vec::with_capacity(64 + p.len() * 8 + i.len() * 8 + v.len() * 8);
        write_header(&mut out, KIND_MATRIX, std::any::type_name::<T>());
        out.put_u64_le(nrows as u64);
        out.put_u64_le(ncols as u64);
        out.put_u64_le(i.len() as u64);
        for x in &p {
            out.put_u64_le(*x as u64);
        }
        for x in &i {
            out.put_u64_le(*x as u64);
        }
        for x in &v {
            x.write_bytes(&mut out);
        }
        Ok(finish(out))
    }

    /// `GrB_Matrix_serialize` into a caller-allocated buffer whose
    /// capacity must cover [`Matrix::serialize_size`]
    /// (`GrB_INSUFFICIENT_SPACE` otherwise).
    pub fn serialize_into(&self, buf: &mut Vec<u8>) -> GrbResult {
        let need = self.serialize_size()?;
        if buf.capacity() < need {
            return Err(Error::exec(
                ExecErrorKind::InsufficientSpace,
                format!("serialize requires capacity {need}, got {}", buf.capacity()),
            ));
        }
        let bytes = self.serialize()?;
        buf.clear();
        buf.extend(bytes);
        Ok(())
    }

    /// `GrB_Matrix_deserialize`: reconstructs a matrix from a stream this
    /// implementation produced.
    pub fn deserialize(bytes: &[u8]) -> GrbResult<Self> {
        let body = verify_and_strip(bytes)?;
        let mut input = body;
        read_header(&mut input, KIND_MATRIX, std::any::type_name::<T>())?;
        if input.len() < 24 {
            return Err(corrupt("truncated dims"));
        }
        let nrows = input.get_u64_le() as usize;
        let ncols = input.get_u64_le() as usize;
        let nnz = input.get_u64_le() as usize;
        let indptr = read_index_array(&mut input, nrows + 1)?;
        let indices = read_index_array(&mut input, nnz)?;
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(T::read_bytes(&mut input).ok_or_else(|| corrupt("truncated values"))?);
        }
        if !input.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Matrix::import(
            nrows,
            ncols,
            Format::Csr,
            Some(indptr),
            Some(indices),
            values,
        )
        .map_err(|_| corrupt("inconsistent arrays"))
    }
}

impl<T: SerializableValue> Vector<T> {
    /// `GrB_Vector_serializeSize`.
    pub fn serialize_size(&self) -> GrbResult<usize> {
        let (i, v) = self.export(VectorFormat::Sparse)?;
        let values_len: usize = v.iter().map(|x| x.encoded_len()).sum();
        let name = std::any::type_name::<T>();
        Ok(4 + 4 + 1 + 2 + name.len() + 8 * 3 + i.len() * 8 + values_len + 8)
    }

    /// `GrB_Vector_serialize`.
    pub fn serialize(&self) -> GrbResult<Vec<u8>> {
        let n = self.size();
        let (i, v) = self.export(VectorFormat::Sparse)?;
        let mut out = Vec::with_capacity(64 + i.len() * 8 + v.len() * 8);
        write_header(&mut out, KIND_VECTOR, std::any::type_name::<T>());
        out.put_u64_le(n as u64);
        out.put_u64_le(0);
        out.put_u64_le(i.len() as u64);
        for x in &i {
            out.put_u64_le(*x as u64);
        }
        for x in &v {
            x.write_bytes(&mut out);
        }
        Ok(finish(out))
    }

    /// `GrB_Vector_serialize` with the caller-allocated-buffer protocol.
    pub fn serialize_into(&self, buf: &mut Vec<u8>) -> GrbResult {
        let need = self.serialize_size()?;
        if buf.capacity() < need {
            return Err(Error::exec(
                ExecErrorKind::InsufficientSpace,
                format!("serialize requires capacity {need}, got {}", buf.capacity()),
            ));
        }
        let bytes = self.serialize()?;
        buf.clear();
        buf.extend(bytes);
        Ok(())
    }

    /// `GrB_Vector_deserialize`.
    pub fn deserialize(bytes: &[u8]) -> GrbResult<Self> {
        let body = verify_and_strip(bytes)?;
        let mut input = body;
        read_header(&mut input, KIND_VECTOR, std::any::type_name::<T>())?;
        if input.len() < 24 {
            return Err(corrupt("truncated dims"));
        }
        let n = input.get_u64_le() as usize;
        let _ = input.get_u64_le();
        let nnz = input.get_u64_le() as usize;
        let indices = read_index_array(&mut input, nnz)?;
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(T::read_bytes(&mut input).ok_or_else(|| corrupt("truncated values"))?);
        }
        if !input.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Vector::import(n, VectorFormat::Sparse, Some(indices), values)
            .map_err(|_| corrupt("inconsistent arrays"))
    }
}

impl<T: SerializableValue> Scalar<T> {
    /// Serializes a scalar (emptiness included).
    pub fn serialize(&self) -> GrbResult<Vec<u8>> {
        let v = self.extract_element()?;
        let mut out = Vec::with_capacity(64);
        write_header(&mut out, KIND_SCALAR, std::any::type_name::<T>());
        out.put_u64_le(0);
        out.put_u64_le(0);
        out.put_u64_le(u64::from(v.is_some()));
        if let Some(v) = &v {
            v.write_bytes(&mut out);
        }
        Ok(finish(out))
    }

    /// Reconstructs a scalar from its stream.
    pub fn deserialize(bytes: &[u8]) -> GrbResult<Self> {
        let body = verify_and_strip(bytes)?;
        let mut input = body;
        read_header(&mut input, KIND_SCALAR, std::any::type_name::<T>())?;
        if input.len() < 24 {
            return Err(corrupt("truncated dims"));
        }
        let _ = input.get_u64_le();
        let _ = input.get_u64_le();
        let present = input.get_u64_le() != 0;
        let s = Scalar::<T>::new()?;
        if present {
            let v = T::read_bytes(&mut input).ok_or_else(|| corrupt("truncated value"))?;
            s.set_element(v)?;
        }
        if !input.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::<f64>::new(3, 4).unwrap();
        m.build(&[0, 1, 2], &[3, 0, 2], &[1.5, -2.5, 3.25], None)
            .unwrap();
        let bytes = m.serialize().unwrap();
        assert!(bytes.len() <= m.serialize_size().unwrap());
        let back = Matrix::<f64>::deserialize(&bytes).unwrap();
        assert_eq!((back.nrows(), back.ncols()), (3, 4));
        assert_eq!(back.extract_tuples().unwrap(), m.extract_tuples().unwrap());
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Matrix::<u8>::new(5, 5).unwrap();
        let back = Matrix::<u8>::deserialize(&m.serialize().unwrap()).unwrap();
        assert_eq!(back.nvals().unwrap(), 0);
        assert_eq!(back.nrows(), 5);
    }

    #[test]
    fn vector_roundtrip() {
        let v = Vector::<i32>::new(10).unwrap();
        v.build(&[2, 7], &[-4, 9], None).unwrap();
        let back = Vector::<i32>::deserialize(&v.serialize().unwrap()).unwrap();
        assert_eq!(back.extract_tuples().unwrap(), v.extract_tuples().unwrap());
        assert_eq!(back.size(), 10);
    }

    #[test]
    fn scalar_roundtrip_including_empty() {
        let s = Scalar::<i64>::new().unwrap();
        let back = Scalar::<i64>::deserialize(&s.serialize().unwrap()).unwrap();
        assert_eq!(back.nvals().unwrap(), 0);
        s.set_element(-7).unwrap();
        let back2 = Scalar::<i64>::deserialize(&s.serialize().unwrap()).unwrap();
        assert_eq!(back2.extract_element().unwrap(), Some(-7));
    }

    #[test]
    fn corruption_detected() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        m.set_element(5, 0, 0).unwrap();
        let mut bytes = m.serialize().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = Matrix::<i64>::deserialize(&bytes).unwrap_err();
        assert!(err.is_execution());
        assert_eq!(err.code(), -104);
    }

    #[test]
    fn repeated_column_is_a_corrupt_stream() {
        // A 1 × 2 matrix whose one row stores column 0 twice, under a
        // valid checksum.
        let mut out = Vec::new();
        write_header(&mut out, KIND_MATRIX, std::any::type_name::<i64>());
        for x in [1, 2, 2, 0, 2, 0, 0] {
            out.put_u64_le(x);
        }
        for v in [1i64, 2] {
            v.write_bytes(&mut out);
        }
        let err = Matrix::<i64>::deserialize(&finish(out)).unwrap_err();
        assert_eq!(err, corrupt("inconsistent arrays"));
    }

    #[test]
    fn wrong_type_is_domain_mismatch() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        let bytes = m.serialize().unwrap();
        let err = Matrix::<f64>::deserialize(&bytes).unwrap_err();
        assert_eq!(err, Error::Api(ApiError::DomainMismatch));
        // Wrong container kind, too.
        let err2 = Vector::<i64>::deserialize(&bytes).unwrap_err();
        assert_eq!(err2, Error::Api(ApiError::DomainMismatch));
    }

    #[test]
    fn serialize_into_capacity_protocol() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        m.set_element(1, 1, 1).unwrap();
        let need = m.serialize_size().unwrap();
        let mut buf = Vec::with_capacity(need);
        m.serialize_into(&mut buf).unwrap();
        assert!(!buf.is_empty());
        let mut small: Vec<u8> = Vec::new();
        assert_eq!(m.serialize_into(&mut small).unwrap_err().code(), -103);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Matrix::<i64>::deserialize(b"not a graphblas stream").is_err());
        assert!(Matrix::<i64>::deserialize(b"").is_err());
    }
}
