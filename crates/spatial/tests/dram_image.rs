//! Copy-on-write `DramImage` aliasing tests: machines bound to one
//! shared image must never observe each other's writes, the image
//! itself must stay pristine, and image binding must be byte-for-byte
//! indistinguishable from `write_dram` binding — DRAM contents and
//! statistics alike.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    CompiledProgram, Counter, DramImage, Machine, MemKind, RunError, SExpr, SpatialProgram,
    SpatialStmt,
};

const SIZE: usize = 16;

/// A program that reads both input arrays and writes DRAM through all
/// three store paths (bulk, stream, scalar), parameterized by seed so
/// the property sweep covers different shapes.
fn writing_program(seed: u64) -> SpatialProgram {
    let mut rng = TestRng::for_test(&format!("image-{seed}"));
    let mut p = SpatialProgram::new(format!("image_{seed}"));
    p.add_dram("in0", SIZE);
    p.add_dram("in1", SIZE);
    p.add_dram("out0", SIZE);
    p.add_dram("out1", SIZE);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    let n = 1 + rng.below(SIZE as u64 - 1);
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(n as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(rng.below(SIZE as u64) as f64)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var("i"),
            value: SExpr::add(
                SExpr::read_random("in1", SExpr::var("i")),
                SExpr::Const(rng.below(8) as f64),
            ),
        }],
    });
    p.assign_ids();
    p
}

fn inputs(seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = TestRng::for_test(&format!("image-inputs-{seed}"));
    ["in0", "in1"]
        .into_iter()
        .map(|name| {
            let data: Vec<f64> = (0..SIZE).map(|_| rng.below(32) as f64 - 8.0).collect();
            (name, data)
        })
        .collect()
}

fn build_image(compiled: &Arc<CompiledProgram>, writes: &[(&str, Vec<f64>)]) -> DramImage {
    let mut b = DramImage::builder(Arc::clone(compiled));
    for (name, data) in writes {
        let slot = compiled.syms().dram_slot(name).expect("declared");
        b.write(slot, data).expect("fits");
    }
    b.finish()
}

fn dram_bits(m: &Machine, name: &str) -> Vec<u64> {
    m.dram(name).unwrap().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two machines bound to the same image: one runs a DRAM-writing
    /// program, the other must stay bit-identical to the pristine
    /// image on every array (no aliasing through the CoW path), and
    /// the image itself must stay pristine.
    #[test]
    fn sibling_machines_never_alias(seed in 0u64..50_000) {
        let p = writing_program(seed);
        let writes = inputs(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, &writes);
        let pristine_input = image.input_words().to_vec();

        let mut runner = Machine::from_compiled(Arc::clone(&compiled));
        runner.bind_image(&image).unwrap();
        let mut witness = Machine::from_compiled(Arc::clone(&compiled));
        witness.bind_image(&image).unwrap();
        let witness_before: Vec<Vec<u64>> =
            p.drams.iter().map(|d| dram_bits(&witness, &d.name)).collect();

        runner.run(&p).expect("writing program runs");
        // The runner *did* write something.
        prop_assert!(runner.stats().total_dram_write_words()
            + runner.stats().dram_random_writes > 0);

        // The sibling machine and the image are untouched.
        for (d, before) in p.drams.iter().zip(&witness_before) {
            prop_assert_eq!(&dram_bits(&witness, &d.name), before,
                "sibling DRAM {} changed", &d.name);
        }
        let image_now: Vec<u64> = image.input_words().iter().map(|v| v.to_bits()).collect();
        let image_was: Vec<u64> = pristine_input.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(image_now, image_was, "shared image mutated");

        // Inputs seen by the runner are still the image's inputs.
        for (name, data) in &writes {
            prop_assert_eq!(runner.dram(name).unwrap(), data.as_slice());
        }
    }

    /// Image-bound and `write_dram`-bound machines are byte-identical:
    /// same DRAM before the run, same DRAM and statistics after.
    #[test]
    fn image_bind_matches_write_dram_bind(seed in 0u64..50_000) {
        let p = writing_program(seed);
        let writes = inputs(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, &writes);

        let mut via_image = Machine::from_compiled(Arc::clone(&compiled));
        via_image.bind_image(&image).unwrap();
        let mut via_write = Machine::from_compiled(Arc::clone(&compiled));
        for (name, data) in &writes {
            via_write.write_dram(name, data).unwrap();
        }
        for d in &p.drams {
            prop_assert_eq!(dram_bits(&via_image, &d.name), dram_bits(&via_write, &d.name),
                "DRAM {} diverges at bind time", &d.name);
        }

        let a = via_image.run(&p);
        let b = via_write.run(&p);
        prop_assert_eq!(&a, &b, "run results diverge");
        for d in &p.drams {
            prop_assert_eq!(dram_bits(&via_image, &d.name), dram_bits(&via_write, &d.name),
                "DRAM {} diverges after run", &d.name);
        }
        prop_assert_eq!(via_image.stats(), via_write.stats(), "stats diverge");
    }
}

/// `write_dram` into a shared input-segment array copies the segment
/// instead of mutating the shared image (string-API copy-on-write).
#[test]
fn write_dram_after_image_bind_copies_not_mutates() {
    let p = writing_program(1);
    let writes = inputs(1);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &writes);

    let mut a = Machine::from_compiled(Arc::clone(&compiled));
    a.bind_image(&image).unwrap();
    let mut b = Machine::from_compiled(Arc::clone(&compiled));
    b.bind_image(&image).unwrap();

    // Mutate an *input* array on `a` through the string API.
    a.write_dram("in0", &[99.0, 98.0]).unwrap();
    assert_eq!(&a.dram("in0").unwrap()[..2], &[99.0, 98.0]);
    // `b` and the image still see the original words.
    assert_eq!(b.dram("in0").unwrap(), &writes[0].1[..]);
    let (off, want) = (0, &writes[0].1);
    assert_eq!(&image.input_words()[off..off + want.len()], &want[..]);
    // Untouched words of `a`'s segment survived the copy.
    assert_eq!(a.dram("in0").unwrap()[2..], writes[0].1[2..]);
    assert_eq!(a.dram("in1").unwrap(), &writes[1].1[..]);
}

/// Cloned machines copy-on-write too: a clone's input writes never leak
/// into the original.
#[test]
fn cloned_machine_copies_on_input_write() {
    let p = writing_program(2);
    let writes = inputs(2);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &writes);
    let mut a = Machine::from_compiled(Arc::clone(&compiled));
    a.bind_image(&image).unwrap();
    let mut b = a.clone();
    b.write_dram("in1", &[7.0]).unwrap();
    assert_eq!(a.dram("in1").unwrap(), &writes[1].1[..]);
    assert_eq!(b.dram("in1").unwrap()[0], 7.0);
}

/// An image built for one program cannot bind to a machine running a
/// different one.
#[test]
fn image_for_different_program_is_rejected() {
    let p1 = writing_program(3);
    let p2 = writing_program(4);
    let c1 = Arc::new(CompiledProgram::compile(&p1));
    let c2 = Arc::new(CompiledProgram::compile(&p2));
    let image = build_image(&c1, &inputs(3));
    let mut m = Machine::from_compiled(c2);
    assert_eq!(m.bind_image(&image), Err(RunError::ImageMismatch));
    // Equal programs compiled separately are compatible.
    let c1b = Arc::new(CompiledProgram::compile(&p1));
    let mut m = Machine::from_compiled(c1b);
    assert_eq!(m.bind_image(&image), Ok(()));
    assert_eq!(m.dram("in0").unwrap(), &inputs(3)[0].1[..]);
}

/// `reset` + `bind_image` on one long-lived machine reproduces a fresh
/// machine's run exactly — DRAM and statistics — across repeated
/// datasets (the O(outputs) serving loop).
#[test]
fn reused_machine_matches_fresh_machine() {
    let p = writing_program(6);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let images: Vec<DramImage> = (0..3)
        .map(|i| build_image(&compiled, &inputs(100 + i)))
        .collect();

    let mut reused = Machine::from_compiled(Arc::clone(&compiled));
    for (round, image) in images.iter().cycle().take(6).enumerate() {
        reused.reset();
        reused.bind_image(image).unwrap();
        let reused_stats = reused.run(&p).expect("reused machine runs");

        let mut fresh = Machine::from_compiled(Arc::clone(&compiled));
        fresh.bind_image(image).unwrap();
        let fresh_stats = fresh.run(&p).expect("fresh machine runs");

        assert_eq!(reused_stats, fresh_stats, "stats diverge on round {round}");
        for d in &p.drams {
            assert_eq!(
                dram_bits(&reused, &d.name),
                dram_bits(&fresh, &d.name),
                "DRAM {} diverges on round {round}",
                d.name
            );
        }
    }
}

/// Re-binding an image resets outputs to the bind-time state: a second
/// bind after a run reproduces the first run exactly.
#[test]
fn rebind_resets_outputs() {
    let p = writing_program(5);
    let writes = inputs(5);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &writes);

    let mut m = Machine::from_compiled(Arc::clone(&compiled));
    m.bind_image(&image).unwrap();
    m.run(&p).unwrap();
    let out_after: Vec<u64> = dram_bits(&m, "out0");

    let mut m2 = Machine::from_compiled(Arc::clone(&compiled));
    m2.bind_image(&image).unwrap();
    m2.run(&p).unwrap();
    assert_eq!(dram_bits(&m2, "out0"), out_after);
}
