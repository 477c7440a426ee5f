//! A tour of the datatype engine: how the constructors of §3.1 flatten
//! into the committed leaf/stack representation of §3.3 (Figures 3 and 5),
//! and what that means for the transfer engines.
//!
//! Run: `cargo run --release --example datatype_gallery`

use core::ops::ControlFlow;
use mpi_datatype::{subarray, tree, ArrayOrder, Committed, Datatype};

fn show(name: &str, dt: &Datatype) {
    let c = Committed::commit(dt);
    println!("{name}");
    println!("  type    : {dt}");
    println!(
        "  size/extent: {} / {} bytes ({} gaps)",
        dt.size(),
        dt.extent(),
        dt.extent().saturating_sub(dt.size())
    );
    println!(
        "  committed : {} leaves, {} basic blocks/instance, min block {} B",
        c.leaves().len(),
        c.blocks_per_instance(),
        c.min_block_len()
    );
    for (i, leaf) in c.leaves().iter().enumerate() {
        let stack: Vec<String> = leaf
            .stack
            .iter()
            .map(|l| format!("(count {}, extent {})", l.count, l.extent))
            .collect();
        println!(
            "    leaf {i}: {} B at disp {}, stack [{}]",
            leaf.len,
            leaf.first,
            stack.join(" ")
        );
    }
    println!();
}

fn main() {
    println!("== datatype gallery: commit-time flattening ==\n");

    show(
        "contiguous run (one memcpy)",
        &Datatype::contiguous(100, &Datatype::double()),
    );

    show(
        "the noncontig benchmark vector (Fig. 7): 128 B blocks, equal gaps",
        &Datatype::vector(2048, 16, 32, &Datatype::double()),
    );

    // Figure 3 / Figure 5: vector of struct{int, char[3]} with gaps.
    let chars = Datatype::contiguous(3, &Datatype::byte());
    let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
    show(
        "Figure 3 struct: int + char[3] (adjacent fields merge to 7 B)",
        &s,
    );
    show(
        "Figure 5: hvector of the struct (one leaf, one stack level)",
        &Datatype::hvector(4, 1, 16, &s),
    );

    show(
        "indexed: ragged blocks (adjacent ones merge)",
        &Datatype::indexed(&[(2, 0), (3, 2), (1, 9)], &Datatype::int()),
    );

    show(
        "ocean east boundary (Fig. 2): double-strided subarray",
        &subarray(
            &[4, 6, 8],
            &[4, 6, 1],
            &[0, 0, 7],
            ArrayOrder::C,
            &Datatype::double(),
        ),
    );

    // What the flattening buys: the work the tree walk does against the
    // committed engine's.
    let dt = Datatype::vector(4096, 2, 4, &Datatype::double());
    let c = Committed::commit(&dt);
    let src = vec![0u8; dt.extent()];
    let (mut segments, mut walked) = (0usize, Vec::new());
    let visits = tree::for_each_segment(&dt, 1, |disp, len| {
        segments += 1;
        walked.extend_from_slice(&src[disp as usize..][..len]);
        ControlFlow::Continue(())
    });
    let mut sink = mpi_datatype::VecSink::default();
    let ff = mpi_datatype::pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
    println!("== engine work for vector(4096 x 16 B) ==");
    println!("  tree walk: {segments} segments, {visits} tree-node visits");
    println!(
        "  ff       : {} blocks, one stack iteration each (O(1) state per block)",
        ff.blocks
    );
    println!("\nsame bytes out of both: {}", walked == sink.data);
}
