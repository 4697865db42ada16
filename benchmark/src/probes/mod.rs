//! Layer probes: each layer's public functions, timed from outside.
//!
//! A traced run spends part of its budget here. The probes do not depend
//! on the workload being run: they give every layer of the stack a row
//! (HEROv2's discipline — a number for every layer, in the artifact,
//! from one command), and the ledgers in [`derive`] say whether the rows
//! add back up to a whole operation.
//!
//! Every probe is sampled in [`PASSES`] passes spread over the probe
//! budget and the fast-end sample is kept, for the reason given at
//! [`crate::stats::fast_end`]: rows that are subtracted from one
//! another must have been measured in the same machine state.

pub mod clc;
pub mod cluster;
pub mod core;
pub mod derive;
pub mod layers;
pub mod wire;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::harness::{Res, Scale};
use crate::metrics::Layers;
use crate::stats::fast_end;

/// Passes over the whole probe suite.
const PASSES: u32 = 3;

/// Splits the probe budget: every probe asks for a number of *units*,
/// and one pass of the suite adds up to about [`Budget::UNITS_PER_PASS`].
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    unit: Duration,
}

impl Budget {
    const UNITS_PER_PASS: u32 = 100;

    pub fn new(total: Duration) -> Budget {
        Budget {
            unit: total / (PASSES * Budget::UNITS_PER_PASS),
        }
    }

    pub fn units(&self, n: u32) -> Duration {
        self.unit * n
    }
}

/// Raw probe samples by name, all of them lower-is-better times (or
/// counts that repeat exactly); [`Samples::reduce`] keeps the
/// fast-end one of each.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn reduce(&self) -> Reduced {
        Reduced(
            self.0
                .iter()
                .map(|(name, v)| (name.clone(), fast_end(v, false)))
                .collect(),
        )
    }
}

/// One value per probe.
#[derive(Debug)]
pub struct Reduced(BTreeMap<String, f64>);

impl Reduced {
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("probe {name} was never sampled"))
    }
}

/// Nanoseconds per call of `f`: calls are timed in batches of `batch`
/// (so sub-microsecond calls are not dominated by `bench.timer_ns`) for
/// about `slice`, after one discarded warm-up batch, and the
/// fast-end batch is returned.
pub fn time_ns(slice: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    time_ns_after(slice, batch, |_| (), |_| f(), &mut ())
}

/// [`time_ns`] on some `state`, with an untimed `reset` of it before
/// every batch.
pub fn time_ns_after<S>(
    slice: Duration,
    batch: u32,
    mut reset: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S),
    state: &mut S,
) -> f64 {
    const MIN_SAMPLES: usize = 3;
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut warm = false;
    while samples.len() < MIN_SAMPLES || started.elapsed() < slice {
        reset(state);
        let t0 = Instant::now();
        for _ in 0..batch {
            f(state);
        }
        let per_call = t0.elapsed().as_nanos() as f64 / f64::from(batch);
        if warm {
            samples.push(per_call);
        }
        warm = true;
    }
    fast_end(&samples, false)
}

/// Runs the probe suite and fills in every workload-independent row of
/// the per-layer catalogue, ledgers included.
pub fn run_all(out: &mut Layers, seed: u64, total: Duration, scale: Scale) -> Res<()> {
    let budget = Budget::new(total);
    let mut clc = clc::Fixture::new(seed, scale)?;
    let mut wire = wire::Fixture::new(seed);
    let mut cluster = cluster::Fixture::new(seed)?;
    let mut core = core::Fixture::new(seed, scale)?;
    let mut apps = layers::Apps::new(seed, scale)?;
    let mut samples = Samples::default();
    for _ in 0..PASSES {
        samples.add(
            "bench.timer_ns",
            time_ns(budget.units(1), 1_000, || {
                std::hint::black_box(Instant::now().elapsed());
            }),
        );
        clc.pass(&budget, &mut samples)?;
        wire.pass(&budget, &mut samples)?;
        cluster.pass(&budget, &mut samples)?;
        layers::sched(&budget, &mut samples);
        layers::obs(&budget, &mut samples);
        core.pass(&budget, &mut samples)?;
        apps.pass(&mut samples)?;
    }
    cluster.shutdown();
    derive::fill(out, &samples.reduce());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_reduce_to_the_fast_end_per_name() {
        let mut samples = Samples::default();
        for v in [30.0, 24.0, 31.0] {
            samples.add("a", v);
        }
        samples.add("b", 7.0);
        let reduced = samples.reduce();
        assert_eq!(reduced.get("a"), 24.0);
        assert_eq!(reduced.get("b"), 7.0);
    }

    #[test]
    fn timing_divides_by_the_batch_and_discards_the_warm_up() {
        let mut calls = 0u32;
        let ns = time_ns(Duration::from_millis(5), 4, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
        });
        // At least warm-up + three samples, four calls each.
        assert!(calls >= 16, "{calls}");
        assert!((200_000.0..2_000_000.0).contains(&ns), "{ns}");
    }
}
