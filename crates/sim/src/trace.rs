//! Workload capture and replay.
//!
//! A [`TraceWorkload`] is a fully materialized recording of any
//! [`Workload`] — every phase's per-iteration cost and block footprint —
//! with a compact binary serialization. Use cases:
//!
//! * capture a workload model once (e.g. the transitive-closure trace,
//!   which costs a Warshall run to derive) and replay it cheaply;
//! * ship measured iteration traces from a real application into the
//!   simulator without writing a `Workload` implementation;
//! * archive the exact workload an experiment ran (the binary form is
//!   versioned and validated on load).

use crate::workload::{BlockAccess, Work, Workload, BLOCK_ID_LIMIT};

const MAGIC: &[u8; 8] = b"AFSTRACE";
const VERSION: u32 = 1;

/// Little-endian append helpers for the writer side.
trait PutLe {
    fn put_slice(&mut self, s: &[u8]);
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f64_le(&mut self, v: f64);
}

impl PutLe for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader for the parser side. Every getter
/// fails with [`TraceError::Truncated`] instead of panicking.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.data.len() < n {
            return Err(TraceError::Truncated);
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }
    fn get_u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }
    fn get_u16_le(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn get_u32_le(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn get_u64_le(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn get_f64_le(&mut self) -> Result<f64, TraceError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Errors from [`TraceWorkload::from_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Input shorter than its declared contents.
    Truncated,
    /// Missing `AFSTRACE` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Declared sizes are inconsistent or implausible, or a block id is not
    /// below [`BLOCK_ID_LIMIT`].
    Corrupt,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace data is truncated"),
            TraceError::BadMagic => write!(f, "not an AFSTRACE stream"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Corrupt => write!(f, "trace data is corrupt"),
        }
    }
}

impl std::error::Error for TraceError {}

#[derive(Clone, Debug, Default, PartialEq)]
struct IterRecord {
    flops: f64,
    divs: f64,
    reads: Vec<BlockAccess>,
    writes: Vec<BlockAccess>,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct PhaseRecord {
    iters: Vec<IterRecord>,
    has_memory: bool,
}

/// A fully materialized, serializable workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceWorkload {
    name: String,
    phases: Vec<PhaseRecord>,
}

impl TraceWorkload {
    /// Records every phase and iteration of `wl`.
    pub fn record(wl: &dyn Workload) -> Self {
        let mut phases = Vec::with_capacity(wl.phases());
        for ph in 0..wl.phases() {
            let mut iters = Vec::with_capacity(wl.phase_len(ph) as usize);
            let memory = wl.has_memory(ph);
            for i in 0..wl.phase_len(ph) {
                let w = wl.cost(ph, i);
                let mut rec = IterRecord {
                    flops: w.flops,
                    divs: w.divs,
                    ..Default::default()
                };
                if memory {
                    wl.reads(ph, i, &mut rec.reads);
                    wl.writes(ph, i, &mut rec.writes);
                }
                iters.push(rec);
            }
            phases.push(PhaseRecord {
                iters,
                has_memory: memory,
            });
        }
        Self {
            name: format!("trace({})", wl.name()),
            phases,
        }
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        let name = self.name.as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u32_le(self.phases.len() as u32);
        for ph in &self.phases {
            buf.put_u8(ph.has_memory as u8);
            buf.put_u64_le(ph.iters.len() as u64);
            for it in &ph.iters {
                buf.put_f64_le(it.flops);
                buf.put_f64_le(it.divs);
                buf.put_u16_le(it.reads.len() as u16);
                buf.put_u16_le(it.writes.len() as u16);
                for a in it.reads.iter().chain(&it.writes) {
                    buf.put_u64_le(a.block);
                    buf.put_u32_le(a.bytes);
                }
            }
        }
        buf
    }

    /// Deserializes the binary format, validating structure.
    pub fn from_bytes(data: &[u8]) -> Result<Self, TraceError> {
        let mut data = Reader { data };
        let magic = data.take(8)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = data.get_u32_le()?;
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let name_len = data.get_u32_le()? as usize;
        if name_len > 1 << 20 {
            return Err(TraceError::Corrupt);
        }
        let name_bytes = data.take(name_len)?.to_vec();
        let name = String::from_utf8(name_bytes).map_err(|_| TraceError::Corrupt)?;
        let num_phases = data.get_u32_le()? as usize;
        if num_phases > 1 << 24 {
            return Err(TraceError::Corrupt);
        }
        let mut phases = Vec::with_capacity(num_phases);
        for _ in 0..num_phases {
            let has_memory = data.get_u8()? != 0;
            let len = data.get_u64_le()?;
            if len > 1 << 32 {
                return Err(TraceError::Corrupt);
            }
            let mut iters = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let flops = data.get_f64_le()?;
                let divs = data.get_f64_le()?;
                if !flops.is_finite() || !divs.is_finite() {
                    return Err(TraceError::Corrupt);
                }
                let n_reads = data.get_u16_le()? as usize;
                let n_writes = data.get_u16_le()? as usize;
                let mut read_accesses = Vec::with_capacity(n_reads);
                let mut write_accesses = Vec::with_capacity(n_writes);
                for k in 0..n_reads + n_writes {
                    let block = data.get_u64_le()?;
                    let bytes = data.get_u32_le()?;
                    // The simulator sizes its tables by the largest id.
                    if block >= BLOCK_ID_LIMIT {
                        return Err(TraceError::Corrupt);
                    }
                    let acc = BlockAccess { block, bytes };
                    if k < n_reads {
                        read_accesses.push(acc);
                    } else {
                        write_accesses.push(acc);
                    }
                }
                iters.push(IterRecord {
                    flops,
                    divs,
                    reads: read_accesses,
                    writes: write_accesses,
                });
            }
            phases.push(PhaseRecord { iters, has_memory });
        }
        Ok(Self { name, phases })
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn phases(&self) -> usize {
        self.phases.len()
    }
    fn phase_len(&self, phase: usize) -> u64 {
        self.phases[phase].iters.len() as u64
    }
    fn cost(&self, phase: usize, i: u64) -> Work {
        let it = &self.phases[phase].iters[i as usize];
        Work::new(it.flops, it.divs)
    }
    fn reads(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        out.extend_from_slice(&self.phases[phase].iters[i as usize].reads);
    }
    fn writes(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        out.extend_from_slice(&self.phases[phase].iters[i as usize].writes);
    }
    fn has_memory(&self, phase: usize) -> bool {
        self.phases[phase].has_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig};
    use crate::machine::MachineSpec;
    use crate::workload::SyntheticLoop;
    use afs_core::prelude::*;

    /// A small memory-touching workload for round-trip tests.
    struct Stencil {
        n: u64,
        phases: usize,
    }
    impl Workload for Stencil {
        fn name(&self) -> String {
            "stencil".into()
        }
        fn phases(&self) -> usize {
            self.phases
        }
        fn phase_len(&self, _p: usize) -> u64 {
            self.n
        }
        fn cost(&self, ph: usize, i: u64) -> Work {
            Work::new((i % 7 + 1) as f64 * 3.0, (ph % 2) as f64)
        }
        fn reads(&self, _p: usize, i: u64, out: &mut Vec<BlockAccess>) {
            out.push(BlockAccess {
                block: i,
                bytes: 256,
            });
            if i > 0 {
                out.push(BlockAccess {
                    block: i - 1,
                    bytes: 256,
                });
            }
        }
        fn writes(&self, _p: usize, i: u64, out: &mut Vec<BlockAccess>) {
            out.push(BlockAccess {
                block: i,
                bytes: 256,
            });
        }
    }

    #[test]
    fn record_reproduces_simulation_exactly() {
        let original = Stencil { n: 60, phases: 4 };
        let trace = TraceWorkload::record(&original);
        let cfg = SimConfig::new(MachineSpec::iris(), 4).with_jitter(0.05);
        let a = simulate(&original, &Affinity::with_k_equals_p(), &cfg);
        let b = simulate(&trace, &Affinity::with_k_equals_p(), &cfg);
        assert_eq!(a.completion_time.to_bits(), b.completion_time.to_bits());
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.metrics.sync, b.metrics.sync);
    }

    #[test]
    fn binary_roundtrip_exact() {
        let trace = TraceWorkload::record(&Stencil { n: 40, phases: 3 });
        let bytes = trace.to_bytes();
        let back = TraceWorkload::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn pure_compute_workload_roundtrips() {
        let wl = SyntheticLoop::triangular(100, 2.0);
        let trace = TraceWorkload::record(&wl);
        assert!(!Workload::has_memory(&trace, 0));
        let back = TraceWorkload::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.cost(0, 0).flops, 200.0);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            TraceWorkload::from_bytes(b"NOTATRACE___"),
            Err(TraceError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let trace = TraceWorkload::record(&SyntheticLoop::balanced(3, 1.0));
        let mut bytes = trace.to_bytes();
        bytes[8] = 99;
        assert_eq!(
            TraceWorkload::from_bytes(&bytes),
            Err(TraceError::BadVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let trace = TraceWorkload::record(&Stencil { n: 5, phases: 2 });
        let bytes = trace.to_bytes();
        for cut in 0..bytes.len() {
            let err = TraceWorkload::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    /// A workload whose single iteration writes one block.
    struct OneWrite(u64);
    impl Workload for OneWrite {
        fn name(&self) -> String {
            "one-write".into()
        }
        fn phases(&self) -> usize {
            1
        }
        fn phase_len(&self, _p: usize) -> u64 {
            1
        }
        fn cost(&self, _p: usize, _i: u64) -> Work {
            Work::flops(1.0)
        }
        fn writes(&self, _p: usize, _i: u64, out: &mut Vec<BlockAccess>) {
            out.push(BlockAccess {
                block: self.0,
                bytes: 64,
            });
        }
    }

    #[test]
    fn rejects_block_ids_at_or_above_the_limit() {
        // Undecoded, a written id of 2^40 would ask the version table for a
        // terabyte of entries.
        for block in [BLOCK_ID_LIMIT, 1 << 40, u64::MAX] {
            let bytes = TraceWorkload::record(&OneWrite(block)).to_bytes();
            assert_eq!(
                TraceWorkload::from_bytes(&bytes),
                Err(TraceError::Corrupt),
                "block id {block}"
            );
        }
        let largest = TraceWorkload::record(&OneWrite(BLOCK_ID_LIMIT - 1));
        let back = TraceWorkload::from_bytes(&largest.to_bytes()).unwrap();
        let res = simulate(
            &back,
            &StaticSched::new(),
            &SimConfig::new(MachineSpec::iris(), 2),
        );
        assert_eq!(res.cache_misses, 1);
    }

    #[test]
    #[should_panic(expected = "BLOCK_ID_LIMIT")]
    fn simulating_an_undecoded_oversized_id_panics_with_the_bound() {
        let cfg = SimConfig::new(MachineSpec::iris(), 1);
        simulate(&OneWrite(1 << 40), &StaticSched::new(), &cfg);
    }

    #[test]
    fn error_display() {
        assert_eq!(TraceError::Truncated.to_string(), "trace data is truncated");
        assert!(TraceError::BadVersion(7).to_string().contains('7'));
    }
}
