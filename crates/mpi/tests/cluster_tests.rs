//! End-to-end cluster tests with hand-written guest MPI programs.

use chaser_isa::{abi, Asm, Cond, Program, Reg};
use chaser_mpi::{
    BudgetKind, Cluster, ClusterConfig, CrossRankEdge, Envelope, Faultiness, HubSyncPolicy,
    MpiErrorKind, MpiObserver, PendingOp, RunBudget, TaintCarrier,
};
use chaser_taint::{ProvSet, TaintMask, TaintPolicy};
use chaser_vm::{ExitStatus, Signal};
use parking_lot::Mutex;
use std::sync::Arc;

fn small_config(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        quantum: 1000,
        phys_bytes: 8 << 20,
        hang_rounds: 32,
        ..ClusterConfig::default()
    }
}

/// Emits `hcall MPI_SEND(buf_sym, count, dtype, dest, tag)`.
fn emit_send(a: &mut Asm, buf: &str, count: i64, dtype: i64, dest: i64, tag: i64) {
    a.lea(Reg::R1, buf);
    a.movi(Reg::R2, count);
    a.movi(Reg::R3, dtype);
    a.movi(Reg::R4, dest);
    a.movi(Reg::R5, tag);
    a.hypercall(abi::MPI_SEND);
}

fn emit_recv(a: &mut Asm, buf: &str, count: i64, dtype: i64, source: i64, tag: i64) {
    a.lea(Reg::R1, buf);
    a.movi(Reg::R2, count);
    a.movi(Reg::R3, dtype);
    a.movi(Reg::R4, source);
    a.movi(Reg::R5, tag);
    a.hypercall(abi::MPI_RECV);
}

/// Sets the taint masks of the buffer at `vaddr` of `rank`, keeping its
/// bytes (as if an injector had corrupted it).
fn taint_buf(cluster: &mut Cluster, rank: u32, vaddr: u64, masks: &[u8]) {
    let (ni, pid) = cluster.rank_location(rank);
    let node = cluster.node_mut(ni);
    let mut p = node
        .read_guest(pid, vaddr, masks.len() as u64, true)
        .expect("read");
    p.masks.copy_from_slice(masks);
    node.write_guest(pid, vaddr, &p, true).expect("taint");
}

/// The taint masks of `len` bytes at `vaddr` of `rank`.
fn masks_of(cluster: &Cluster, rank: u32, vaddr: u64, len: u64) -> Vec<u8> {
    let (ni, pid) = cluster.rank_location(rank);
    let p = cluster.node(ni).read_guest(pid, vaddr, len, true);
    p.expect("read").masks
}

/// Rank 0 sends 42 to rank 1; rank 1 increments and returns it; rank 0
/// exits with the value.
fn ping_pong_program() -> Program {
    let mut a = Asm::new("pingpong");
    a.data_i64("buf", &[42]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "slave");
    // master
    emit_send(&mut a, "buf", 1, 1, 1, 7);
    emit_recv(&mut a, "buf", 1, 1, 1, 8);
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    // slave
    a.label("slave");
    emit_recv(&mut a, "buf", 1, 1, 0, 7);
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.addi(Reg::R9, 1);
    a.st(Reg::R9, Reg::R8, 0);
    emit_send(&mut a, "buf", 1, 1, 0, 8);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    a.assemble().expect("assemble")
}

#[test]
fn ping_pong_round_trip() {
    let mut cluster = Cluster::new(small_config(2));
    let prog = ping_pong_program();
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "must not hang");
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(43)));
    assert_eq!(run.rank_exits[1], Some(ExitStatus::Exited(0)));
    assert!(cluster.net_stats().delivered >= 2);
}

/// Root broadcasts 10; every rank computes rank*10 and all-reduce-sums.
/// With 3 ranks: (0+1+2)*10 = 30; every rank exits with 30.
fn bcast_reduce_program() -> Program {
    let mut a = Asm::new("bcastreduce");
    a.data_i64("x", &[0]);
    a.data_i64("mine", &[0]);
    a.data_i64("sum", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // root rank 0 sets x = 10
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "after_init");
    a.lea(Reg::R8, "x");
    a.movi(Reg::R9, 10);
    a.st(Reg::R9, Reg::R8, 0);
    a.label("after_init");
    // bcast x from root 0
    a.lea(Reg::R1, "x");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1); // I64
    a.movi(Reg::R4, 0); // root
    a.hypercall(abi::MPI_BCAST);
    // mine = rank * x
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.mul(Reg::R9, Reg::R7);
    a.lea(Reg::R8, "mine");
    a.st(Reg::R9, Reg::R8, 0);
    // allreduce sum
    a.lea(Reg::R1, "mine");
    a.lea(Reg::R2, "sum");
    a.movi(Reg::R3, 1); // count
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 1); // Sum
    a.hypercall(abi::MPI_ALLREDUCE);
    a.lea(Reg::R8, "sum");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    a.assemble().expect("assemble")
}

#[test]
fn bcast_and_allreduce() {
    let mut cluster = Cluster::new(small_config(3));
    let prog = bcast_reduce_program();
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    for r in 0..3 {
        assert_eq!(run.rank_exits[r], Some(ExitStatus::Exited(30)));
    }
}

/// Scatter 4 values from root, each rank doubles its element, gather back;
/// root checks the result.
fn scatter_gather_program(nranks: i64) -> Program {
    let mut a = Asm::new("scatgath");
    a.data_i64("sendbuf", &[10, 20, 30, 40]);
    a.data_i64("elem", &[0]);
    a.data_i64("recvbuf", &[0, 0, 0, 0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // scatter(sendbuf -> elem), 1 elem per rank, root 0
    a.lea(Reg::R1, "sendbuf");
    a.lea(Reg::R2, "elem");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 0); // root
    a.hypercall(abi::MPI_SCATTER);
    // elem *= 2
    a.lea(Reg::R8, "elem");
    a.ld(Reg::R9, Reg::R8, 0);
    a.muli(Reg::R9, 2);
    a.st(Reg::R9, Reg::R8, 0);
    // gather(elem -> recvbuf)
    a.lea(Reg::R1, "elem");
    a.lea(Reg::R2, "recvbuf");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 0);
    a.hypercall(abi::MPI_GATHER);
    a.hypercall(abi::MPI_FINALIZE);
    // root sums recvbuf and exits with it; others exit 0
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "done");
    a.lea(Reg::R8, "recvbuf");
    a.movi(Reg::R9, 0);
    a.movi(Reg::R10, 0);
    a.label("sumloop");
    a.ldx(Reg::R11, Reg::R8, Reg::R10);
    a.add(Reg::R9, Reg::R11);
    a.addi(Reg::R10, 1);
    a.cmpi(Reg::R10, nranks);
    a.jcc(Cond::Lt, "sumloop");
    a.exit_with(Reg::R9);
    a.label("done");
    a.exit(0);
    a.assemble().expect("assemble")
}

#[test]
fn scatter_then_gather() {
    let mut cluster = Cluster::new(small_config(4));
    let prog = scatter_gather_program(4);
    cluster.launch_replicated(&prog, 4).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    // (10+20+30+40)*2 = 200
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(200)));
}

/// A send to a nonexistent rank must abort the job with InvalidRank.
#[test]
fn corrupted_dest_rank_is_an_mpi_error() {
    let mut a = Asm::new("baddest");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    emit_send(&mut a, "buf", 1, 1, 99, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    let err = run.mpi_error.expect("MPI error");
    assert_eq!(err.kind, MpiErrorKind::InvalidRank);
    assert!(run
        .rank_exits
        .iter()
        .all(|e| *e == Some(ExitStatus::MpiAborted)));
}

/// A corrupted datatype code is caught by validation.
#[test]
fn corrupted_datatype_is_an_mpi_error() {
    let mut a = Asm::new("baddtype");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    emit_send(&mut a, "buf", 1, 77, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::InvalidDatatype
    );
}

/// An absurd count (as from a corrupted register) is caught.
#[test]
fn corrupted_count_is_an_mpi_error() {
    let mut a = Asm::new("badcount");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1 << 40);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::InvalidCount);
}

/// A corrupted buffer pointer dies with SIGSEGV inside the MPI library —
/// an OS exception, not an MPI error.
#[test]
fn corrupted_buffer_pointer_is_an_os_exception() {
    let mut a = Asm::new("badbuf");
    a.hypercall(abi::MPI_INIT);
    a.movi(Reg::R1, 0x6000_0000);
    a.movi(Reg::R2, 4);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    // Rank 1 waits on a message that never comes from the dead rank 0.
    let mut b = Asm::new("waiter");
    b.data_i64("buf", &[0]);
    b.hypercall(abi::MPI_INIT);
    emit_recv(&mut b, "buf", 1, 1, 0, 7);
    b.exit(0);
    let waiter = b.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch(&[&prog, &waiter]).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.rank_exits[0],
        Some(ExitStatus::Signaled(Signal::Segv)),
        "sender dies of SIGSEGV"
    );
    // The stranded receiver surfaces as an MPI RankDied abort.
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
    assert_eq!(run.rank_exits[1], Some(ExitStatus::MpiAborted));
}

/// Receive with nobody sending (both ranks receive) must be detected as a
/// hang.
#[test]
fn deadlocked_receives_hang() {
    let mut a = Asm::new("deadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R6, 1);
    a.sub(Reg::R6, Reg::R7); // peer = 1 - rank
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R6);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_RECV);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(run.hang, "cross-receive deadlock must be detected");
    assert_eq!(run.rank_exits[0], None);
    assert_eq!(run.rank_exits[1], None);
}

/// Mismatched collectives (one rank in barrier, one in bcast) abort.
#[test]
fn mismatched_collectives_abort() {
    let mut a = Asm::new("mismatch");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "other");
    a.hypercall(abi::MPI_BARRIER);
    a.exit(0);
    a.label("other");
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.hypercall(abi::MPI_BCAST);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::TypeMismatch);
}

/// Using MPI before MPI_Init aborts.
#[test]
fn mpi_before_init_aborts() {
    let mut a = Asm::new("noinit");
    a.hypercall(abi::MPI_COMM_RANK);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::NotInitialized
    );
}

/// Taint on the sender's buffer crosses to the receiver through the hub,
/// and does not cross when the carrier is disabled.
#[test]
fn taint_crosses_ranks_via_hub() {
    for (carrier, expect_cross) in [
        (TaintCarrier::Hub, true),
        (TaintCarrier::Header, true),
        (TaintCarrier::None, false),
    ] {
        let mut cfg = small_config(2);
        cfg.taint_carrier = carrier;
        let mut cluster = Cluster::new(cfg);
        let prog = ping_pong_program();
        cluster.launch_replicated(&prog, 2).expect("launch");

        // Taint the master's send buffer before anything runs — as if an
        // injector had corrupted it.
        let buf = prog.symbol("buf").expect("buf symbol");
        taint_buf(&mut cluster, 0, buf, &[0xff; 8]);

        let run = cluster.run();
        assert!(!run.hang);
        assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(43)));

        // Check the slave's buffer shadow after its receive.
        let slave_masks = masks_of(&cluster, 1, buf, 8);
        let crossed = slave_masks.iter().any(|&m| m != 0);
        assert_eq!(
            crossed, expect_cross,
            "carrier {carrier:?}: cross-rank taint expectation"
        );
        if expect_cross {
            assert!(run.cross_rank_tainted_deliveries >= 1);
        } else {
            assert_eq!(run.cross_rank_tainted_deliveries, 0);
        }
        if carrier == TaintCarrier::Hub {
            let stats = cluster.hub().stats();
            assert!(stats.published >= 1, "hub must have been used");
            assert!(stats.hits >= 1);
        }
    }
}

/// The hub must not mis-apply a later tainted message's record to an
/// earlier clean message (seq alignment).
#[test]
fn clean_then_tainted_messages_stay_aligned() {
    // master sends buf (clean), then buf2; slave receives into rbuf1, rbuf2
    // and exits with rbuf1's taint status unknown to the guest — we check
    // shadows from outside.
    let mut a = Asm::new("aligned");
    a.data_i64("buf1", &[1]);
    a.data_i64("buf2", &[2]);
    a.data_i64("rbuf1", &[0]);
    a.data_i64("rbuf2", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "slave");
    emit_send(&mut a, "buf1", 1, 1, 1, 7);
    emit_send(&mut a, "buf2", 1, 1, 1, 7);
    a.exit(0);
    a.label("slave");
    emit_recv(&mut a, "rbuf1", 1, 1, 0, 7);
    emit_recv(&mut a, "rbuf2", 1, 1, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");

    // Taint only buf2 on the master.
    let buf2 = prog.symbol("buf2").expect("buf2");
    taint_buf(&mut cluster, 0, buf2, &[0xff; 8]);

    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);

    let m1 = masks_of(&cluster, 1, prog.symbol("rbuf1").expect("rbuf1"), 8);
    let m2 = masks_of(&cluster, 1, prog.symbol("rbuf2").expect("rbuf2"), 8);
    assert!(
        m1.iter().all(|&m| m == 0),
        "first (clean) message must stay clean"
    );
    assert!(
        m2.iter().any(|&m| m != 0),
        "second (tainted) message must carry taint"
    );
}

/// A receive with a smaller buffer than the matched message must abort
/// with a truncation error.
#[test]
fn truncated_receive_is_an_mpi_error() {
    let mut a = Asm::new("trunc");
    a.data_i64("big", &[1, 2, 3, 4]);
    a.data_i64("small", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "recv_side");
    emit_send(&mut a, "big", 4, 1, 1, 7);
    a.exit(0);
    a.label("recv_side");
    emit_recv(&mut a, "small", 1, 1, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::Truncation);
}

/// Sender and receiver disagreeing on the datatype must abort.
#[test]
fn datatype_mismatch_is_an_mpi_error() {
    let mut a = Asm::new("dtmismatch");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "recv_side");
    emit_send(&mut a, "buf", 1, 1, 1, 7); // sends I64
    a.exit(0);
    a.label("recv_side");
    emit_recv(&mut a, "buf", 1, 2, 0, 7); // expects F64
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::TypeMismatch);
}

/// All four reduction operators over I64 and F64.
#[test]
fn reduce_operators_compute_correctly() {
    // rank contributes (rank+1); with 3 ranks: sum=6, min=1, max=3, prod=6
    for (op, expect) in [(1i64, 6i64), (2, 1), (3, 3), (4, 6)] {
        let mut a = Asm::new("redop");
        a.data_i64("mine", &[0]);
        a.data_i64("out", &[0]);
        a.hypercall(abi::MPI_INIT);
        a.hypercall(abi::MPI_COMM_RANK);
        a.mov(Reg::R7, Reg::R0);
        a.addi(Reg::R7, 1);
        a.lea(Reg::R8, "mine");
        a.st(Reg::R7, Reg::R8, 0);
        a.lea(Reg::R1, "mine");
        a.lea(Reg::R2, "out");
        a.movi(Reg::R3, 1);
        a.movi(Reg::R4, 1); // I64
        a.movi(Reg::R5, op);
        a.hypercall(abi::MPI_ALLREDUCE);
        a.lea(Reg::R8, "out");
        a.ld(Reg::R9, Reg::R8, 0);
        a.exit_with(Reg::R9);
        let prog = a.assemble().expect("assemble");

        let mut cluster = Cluster::new(small_config(3));
        cluster.launch_replicated(&prog, 3).expect("launch");
        let run = cluster.run();
        assert_eq!(run.mpi_error, None, "op {op}");
        for r in 0..3 {
            assert_eq!(
                run.rank_exits[r],
                Some(ExitStatus::Exited(expect)),
                "op {op} rank {r}"
            );
        }
    }
}

/// A byte-typed reduce is rejected (no meaningful elementwise op).
#[test]
fn byte_reduce_is_rejected() {
    let mut a = Asm::new("bytereduce");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.lea(Reg::R1, "buf");
    a.lea(Reg::R2, "buf");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 3); // Byte
    a.movi(Reg::R5, 1);
    a.hypercall(abi::MPI_ALLREDUCE);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::InvalidDatatype
    );
}

/// A runaway guest loop (as a corrupted branch produces) is caught by the
/// instruction budget and declared a hang.
#[test]
fn runaway_loop_is_declared_hung() {
    let mut a = Asm::new("spin");
    a.label("forever");
    a.jmp("forever");
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(1);
    cfg.max_total_insns = 100_000;
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert!(run.hang);
    assert_eq!(run.rank_exits[0], None);
    assert!(run.total_insns >= 100_000);
}

/// Collectives work with a non-zero root.
#[test]
fn bcast_from_nonzero_root() {
    let mut a = Asm::new("root2");
    a.data_i64("x", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 2);
    a.jcc(Cond::Ne, "join");
    a.lea(Reg::R8, "x");
    a.movi(Reg::R9, 55);
    a.st(Reg::R9, Reg::R8, 0);
    a.label("join");
    a.lea(Reg::R1, "x");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 2); // root = 2
    a.hypercall(abi::MPI_BCAST);
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error, None);
    for r in 0..3 {
        assert_eq!(run.rank_exits[r], Some(ExitStatus::Exited(55)), "rank {r}");
    }
}

/// External node-failure injection: kill a slave mid-run; the job must
/// surface RankDied, and the victim's status must show the signal.
#[test]
fn external_rank_failure_strands_peers() {
    let mut cluster = Cluster::new(small_config(2));
    let prog = ping_pong_program();
    cluster.launch_replicated(&prog, 2).expect("launch");
    // Let the job start, then fail the slave.
    for _ in 0..2 {
        cluster.step_round();
    }
    cluster.fail_rank(1, Signal::Segv);
    let run = cluster.run();
    assert_eq!(run.rank_exits[1], Some(ExitStatus::Signaled(Signal::Segv)));
    // The master either already finished its exchange or observes the dead
    // peer as an MPI error.
    match run.rank_exits[0] {
        Some(ExitStatus::Exited(43)) => {}
        Some(ExitStatus::MpiAborted) => {
            assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
        }
        other => panic!("unexpected master status: {other:?}"),
    }
}

/// Nonblocking exchange: both ranks post an Irecv first, then Isend, then
/// Wait — the standard deadlock-free halo pattern that *blocking* cross
/// receives (see `deadlocked_receives_hang`) cannot express.
#[test]
fn nonblocking_exchange_avoids_the_deadlock() {
    let mut a = Asm::new("isendirecv");
    a.data_i64("mine", &[0]);
    a.data_i64("theirs", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // mine = rank + 100
    a.mov(Reg::R9, Reg::R7);
    a.addi(Reg::R9, 100);
    a.lea(Reg::R8, "mine");
    a.st(Reg::R9, Reg::R8, 0);
    // peer = 1 - rank
    a.movi(Reg::R10, 1);
    a.sub(Reg::R10, Reg::R7);
    // irecv(theirs) from peer
    a.lea(Reg::R1, "theirs");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R10);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_IRECV);
    a.mov(Reg::R11, Reg::R0); // request handle
                              // isend(mine) to peer
    a.lea(Reg::R1, "mine");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R10);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_ISEND);
    // wait(recv request)
    a.mov(Reg::R1, Reg::R11);
    a.hypercall(abi::MPI_WAIT);
    a.lea(Reg::R8, "theirs");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "nonblocking exchange must not deadlock");
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(101)));
    assert_eq!(run.rank_exits[1], Some(ExitStatus::Exited(100)));
}

/// ANY_SOURCE/ANY_TAG receives collect messages from every sender.
#[test]
fn wildcard_receive_from_any_source() {
    let mut a = Asm::new("anysrc");
    a.data_i64("mine", &[0]);
    a.data_i64("got", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Eq, "master");
    // workers send rank (with tag = 40 + rank)
    a.lea(Reg::R8, "mine");
    a.st(Reg::R7, Reg::R8, 0);
    a.lea(Reg::R1, "mine");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.mov(Reg::R5, Reg::R7);
    a.addi(Reg::R5, 40);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    // master: three wildcard receives, sum all payloads
    a.label("master");
    a.movi(Reg::R9, 0); // sum
    a.movi(Reg::R10, 0); // i
    a.label("recv_loop");
    a.cmpi(Reg::R10, 2);
    a.jcc(Cond::Ge, "done");
    a.lea(Reg::R1, "got");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, abi::MPI_ANY as i64); // ANY_SOURCE
    a.movi(Reg::R5, abi::MPI_ANY as i64); // ANY_TAG
    a.hypercall(abi::MPI_RECV);
    a.lea(Reg::R8, "got");
    a.ld(Reg::R11, Reg::R8, 0);
    a.add(Reg::R9, Reg::R11);
    a.addi(Reg::R10, 1);
    a.jmp("recv_loop");
    a.label("done");
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(3)), "1 + 2");
}

/// Waiting on a bogus request handle is caught.
#[test]
fn wait_on_invalid_request_is_an_mpi_error() {
    let mut a = Asm::new("badwait");
    a.hypercall(abi::MPI_INIT);
    a.movi(Reg::R1, 42);
    a.hypercall(abi::MPI_WAIT);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::InvalidOp);
}

/// A Wait stranded by a dead sender surfaces as RankDied.
#[test]
fn wait_on_dead_sender_is_rank_died() {
    let mut a = Asm::new("deadwait");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "peer");
    // rank 0: irecv from 1, then wait — but rank 1 exits without sending.
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_IRECV);
    a.mov(Reg::R1, Reg::R0);
    a.hypercall(abi::MPI_WAIT);
    a.exit(0);
    a.label("peer");
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
}

/// MPI_Wtime ticks forward.
#[test]
fn wtime_is_monotonic() {
    let mut a = Asm::new("wtime");
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_WTIME);
    a.mov(Reg::R7, Reg::R0);
    a.nop();
    a.nop();
    a.hypercall(abi::MPI_WTIME);
    a.cmp(Reg::R0, Reg::R7);
    a.jcc(Cond::Gt, "ok");
    a.exit(1);
    a.label("ok");
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(0)));
}

/// The per-run instruction budget stops a runaway loop at exactly the same
/// instruction on every replay, and is classified as a budget stop, not a
/// hang.
#[test]
fn insn_budget_stops_runaway_deterministically() {
    let spin = {
        let mut a = Asm::new("spin");
        a.label("forever");
        a.jmp("forever");
        a.assemble().expect("assemble")
    };
    let mut totals = Vec::new();
    for _ in 0..2 {
        let mut cfg = small_config(1);
        cfg.run_budget = RunBudget {
            max_insns: 50_000,
            max_rounds: 0,
        };
        let mut cluster = Cluster::new(cfg);
        cluster.launch_replicated(&spin, 1).expect("launch");
        let run = cluster.run();
        assert_eq!(run.budget_exhausted, Some(BudgetKind::Insns));
        assert!(!run.hang, "budget stop must not be classified as a hang");
        assert_eq!(run.rank_exits[0], None);
        assert_eq!(run.total_insns, 50_000, "budget binds exactly");
        assert_eq!(run.live_at_stop.len(), 1);
        assert_eq!(run.live_at_stop[0].pending, PendingOp::Compute);
        totals.push(run.total_insns);
    }
    assert_eq!(totals[0], totals[1], "deterministic across replays");
}

/// The round budget stops a deadlocked job before the hang heuristic gets a
/// chance to, and the report names the live ranks and their pending ops.
#[test]
fn round_budget_fires_before_the_hang_heuristic() {
    let mut a = Asm::new("deadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R6, 1);
    a.sub(Reg::R6, Reg::R7);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R6);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_RECV);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(2);
    cfg.run_budget = RunBudget {
        max_insns: 0,
        max_rounds: 10,
    };
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.budget_exhausted, Some(BudgetKind::Rounds));
    assert!(!run.hang);
    assert_eq!(run.rounds, 10);
    let pending: Vec<PendingOp> = run.live_at_stop.iter().map(|h| h.pending).collect();
    assert_eq!(pending, vec![PendingOp::Recv, PendingOp::Recv]);
}

/// A genuine hang report names the live ranks and what they wait on.
#[test]
fn hang_report_names_live_ranks_and_pending_ops() {
    let mut a = Asm::new("halfdeadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "spin");
    // Rank 0 blocks in a receive rank 1 never serves, while rank 1 spins
    // in user code — live-but-stuck, so the stall is a hang, not RankDied.
    emit_recv(&mut a, "buf", 1, 1, 1, 7);
    a.exit(0);
    a.label("spin");
    a.label("forever");
    a.jmp("forever");
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(2);
    cfg.max_total_insns = 200_000;
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(run.hang);
    assert_eq!(run.live_at_stop.len(), 2);
    assert_eq!(run.live_at_stop[0].rank, 0);
    assert_eq!(run.live_at_stop[0].pending, PendingOp::Recv);
    assert_eq!(run.live_at_stop[1].rank, 1);
    assert_eq!(run.live_at_stop[1].pending, PendingOp::Compute);
}

/// A lossy fabric with retransmission enabled must not change MPI results:
/// the ack/retransmit layer hides drops and duplicates from the runtime.
#[test]
fn lossy_interconnect_preserves_mpi_results() {
    let prog = bcast_reduce_program();
    let reliable = {
        let mut cluster = Cluster::new(small_config(3));
        cluster.launch_replicated(&prog, 3).expect("launch");
        cluster.run()
    };
    for seed in [1u64, 7, 42] {
        let mut cfg = small_config(3);
        cfg.net_faultiness = Faultiness {
            drop_prob: 0.4,
            dup_prob: 0.3,
            max_retries: 32,
            seed,
        };
        let mut cluster = Cluster::new(cfg);
        cluster.launch_replicated(&prog, 3).expect("launch");
        let run = cluster.run();
        assert!(!run.hang, "seed {seed}");
        assert_eq!(run.mpi_error, None, "seed {seed}");
        assert_eq!(run.rank_exits, reliable.rank_exits, "seed {seed}");
        assert_eq!(cluster.net_stats().lost, 0, "retransmit must recover");
    }
}

/// When every TaintHub poll fails, the delivery completes in degraded mode:
/// the data arrives, the taint is dropped, and the loss is counted.
#[test]
fn exhausted_hub_retries_degrade_to_taint_sync_lost() {
    let mut cfg = small_config(2);
    cfg.taint_carrier = TaintCarrier::Hub;
    cfg.hub_sync = HubSyncPolicy {
        drop_prob: 1.0,
        max_retries: 3,
        ..HubSyncPolicy::default()
    };
    let mut cluster = Cluster::new(cfg);
    let prog = ping_pong_program();
    cluster.launch_replicated(&prog, 2).expect("launch");

    let buf = prog.symbol("buf").expect("buf symbol");
    taint_buf(&mut cluster, 0, buf, &[0xff; 8]);

    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(
        run.rank_exits[0],
        Some(ExitStatus::Exited(43)),
        "data flows"
    );
    assert!(run.taint_sync_lost >= 1, "lost sync must be counted");
    assert_eq!(
        run.cross_rank_tainted_deliveries, 0,
        "degraded deliveries must not count as propagated taint"
    );
    let slave_masks = masks_of(&cluster, 1, buf, 8);
    assert!(
        slave_masks.iter().all(|&m| m == 0),
        "taint must not cross when sync is lost"
    );
}

/// Mid-collective process death: one rank dies before joining a barrier
/// the others already entered; the job must abort with RankDied instead of
/// hanging.
#[test]
fn death_before_joining_a_collective_aborts() {
    let mut a = Asm::new("collpartial");
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 2);
    a.jcc(Cond::Eq, "die");
    a.hypercall(abi::MPI_BARRIER);
    a.exit(0);
    a.label("die");
    // Rank 2 dereferences a wild pointer instead of joining.
    a.movi(Reg::R1, 0x5555_0000);
    a.ld(Reg::R2, Reg::R1, 0);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "must be detected as an error, not a hang");
    assert_eq!(run.rank_exits[2], Some(ExitStatus::Signaled(Signal::Segv)));
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
}

/// Everything an [`MpiObserver`] saw, in firing order.
#[derive(Default)]
struct TrafficLog {
    sends: Vec<usize>,
    delivered: Vec<usize>,
    edges: Vec<CrossRankEdge>,
}

impl MpiObserver for TrafficLog {
    fn on_send(&mut self, _env: &Envelope, tainted_bytes: usize) {
        self.sends.push(tainted_bytes);
    }
    fn on_delivered(&mut self, _env: &Envelope, tainted_bytes: usize) {
        self.delivered.push(tainted_bytes);
    }
    fn on_tainted_delivery(&mut self, edge: &CrossRankEdge) {
        self.edges.push(edge.clone());
    }
}

/// Three ranks, every buffer touched only by the MPI runtime: rank 2
/// sends `p2p_src` to rank 0, broadcasts `bc` (root 2), reduces `red_in`
/// into `red_out` (root 2) and into every rank's `all_out`, scatters the
/// three words of `sc_in` into `sc_out` (root 2), and rank 0 gathers every
/// rank's `ga_in` into `ga_out`.
fn data_path_program() -> Program {
    let mut a = Asm::new("datapath");
    for sym in ["p2p_src", "p2p_dst", "bc", "red_in", "red_out", "all_out"] {
        a.data_i64(sym, &[0]);
    }
    a.data_i64("sc_in", &[0, 0, 0]);
    a.data_i64("sc_out", &[0]);
    a.data_i64("ga_in", &[0]);
    a.data_i64("ga_out", &[0, 0, 0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 2);
    a.jcc(Cond::Ne, "not_sender");
    emit_send(&mut a, "p2p_src", 1, 1, 0, 5);
    a.jmp("p2p_done");
    a.label("not_sender");
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "p2p_done");
    emit_recv(&mut a, "p2p_dst", 1, 1, 2, 5);
    a.label("p2p_done");
    // bcast(bc, 1, I64, root 2)
    a.lea(Reg::R1, "bc");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 2);
    a.hypercall(abi::MPI_BCAST);
    // reduce(red_in -> red_out, 1, I64, Sum, root 2)
    a.lea(Reg::R1, "red_in");
    a.lea(Reg::R2, "red_out");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 1);
    a.movi(Reg::R6, 2);
    a.hypercall(abi::MPI_REDUCE);
    // allreduce(red_in -> all_out, 1, I64, Sum)
    a.lea(Reg::R1, "red_in");
    a.lea(Reg::R2, "all_out");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 1);
    a.hypercall(abi::MPI_ALLREDUCE);
    // scatter(sc_in -> sc_out, 1 per rank, I64, root 2)
    a.lea(Reg::R1, "sc_in");
    a.lea(Reg::R2, "sc_out");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 2);
    a.hypercall(abi::MPI_SCATTER);
    // gather(ga_in -> ga_out, 1 per rank, I64, root 0)
    a.lea(Reg::R1, "ga_in");
    a.lea(Reg::R2, "ga_out");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 0);
    a.hypercall(abi::MPI_GATHER);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    a.assemble().expect("assemble")
}

/// Physical address of `vaddr` in `rank`'s address space.
fn rank_paddr(cluster: &Cluster, rank: u32, vaddr: u64) -> (usize, u64) {
    let (ni, pid) = cluster.rank_location(rank);
    let proc = cluster.node(ni).process(pid).expect("rank process");
    (ni, proc.aspace.translate_read(vaddr).expect("mapped"))
}

/// Taints the 8-byte word at `vaddr` in `rank`'s memory with `mask`,
/// attributed to fault `prov` (provenance lands only on tainted bytes).
fn seed_word(cluster: &mut Cluster, rank: u32, vaddr: u64, mask: u64, prov: u32) {
    let (ni, paddr) = rank_paddr(cluster, rank, vaddr);
    cluster.node_mut(ni).taint_mut().store8_with_prov(
        paddr,
        TaintMask(mask),
        ProvSet::single(prov),
    );
}

/// Per-byte taint masks and raw provenance bits of a buffer.
type Shadow = (Vec<u8>, Vec<u32>);

/// The shadow of `len` bytes at `vaddr` of `rank`.
fn shadow_of(cluster: &Cluster, rank: u32, vaddr: u64, len: u64) -> Shadow {
    let (ni, paddr) = rank_paddr(cluster, rank, vaddr);
    let taint = cluster.node(ni).taint();
    (0..len)
        .map(|i| {
            (
                taint.mem().byte(paddr + i),
                taint.prov_byte(paddr + i).bits(),
            )
        })
        .unzip()
}

/// Expected shadow of an 8-byte word: `mask` bytes tainted 0xff, each
/// carrying provenance bit `prov` when `with_prov`.
fn word_shadow(mask: u64, prov: u32, with_prov: bool) -> Shadow {
    (0..8)
        .map(|i| {
            let m = (mask >> (8 * i)) as u8;
            (m, if m != 0 && with_prov { 1 << prov } else { 0 })
        })
        .unzip()
}

/// Characterises the cross-rank data path of every MPI movement: for each
/// carrier, the destination shadow (masks and provenance), the tainted
/// delivery count and the ordered edge list an observer sees. Point to
/// point honours the carrier (the header carries masks only); collectives
/// move masks and provenance under any carrier but `None`, and count one
/// delivery per receiver with a tainted contributor other than itself.
#[test]
fn mpi_data_paths_carry_taint_and_provenance() {
    const P2P: u64 = 0xFFFF_FFFF;
    const BC: u64 = 0xFF00;
    const RED: u64 = 0x00FF_FF00_0000_0000;
    const SC0: u64 = 0xFF;
    const SC2: u64 = 0xFFFF_0000_0000_0000;
    const GA: u64 = u64::MAX;
    const COLL: u64 = 0xC0_11_EC_00;
    let prog = data_path_program();
    let sym = |s: &str| prog.symbol(s).expect("symbol");
    for carrier in [TaintCarrier::Hub, TaintCarrier::Header, TaintCarrier::None] {
        let mut cfg = small_config(3);
        cfg.taint_carrier = carrier;
        let mut cluster = Cluster::new(cfg);
        cluster.launch_replicated(&prog, 3).expect("launch");
        let log = Arc::new(Mutex::new(TrafficLog::default()));
        cluster.add_observer(log.clone());
        seed_word(&mut cluster, 2, sym("p2p_src"), P2P, 1);
        seed_word(&mut cluster, 2, sym("bc"), BC, 2);
        seed_word(&mut cluster, 2, sym("red_in"), RED, 3);
        seed_word(&mut cluster, 2, sym("sc_in"), SC0, 4);
        seed_word(&mut cluster, 2, sym("sc_in") + 16, SC2, 5);
        seed_word(&mut cluster, 2, sym("ga_in"), GA, 6);

        let run = cluster.run();
        assert_eq!(run.mpi_error, None, "{carrier:?}");
        assert!(run.all_success(), "{carrier:?}: {run:?}");

        let coll = carrier != TaintCarrier::None;
        let clean = word_shadow(0, 0, false);
        let lands = |mask: u64, prov: u32| word_shadow(if coll { mask } else { 0 }, prov, coll);
        let p2p = match carrier {
            TaintCarrier::Hub => word_shadow(P2P, 1, true),
            TaintCarrier::Header => word_shadow(P2P, 1, false),
            TaintCarrier::None => clean.clone(),
        };
        let expect: Vec<(u32, &str, u64, Shadow)> = vec![
            (0, "p2p_dst", 0, p2p),
            (0, "bc", 0, lands(BC, 2)),
            (1, "bc", 0, lands(BC, 2)),
            (2, "red_out", 0, lands(RED, 3)),
            (0, "all_out", 0, lands(RED, 3)),
            (1, "all_out", 0, lands(RED, 3)),
            (2, "all_out", 0, lands(RED, 3)),
            (0, "sc_out", 0, lands(SC0, 4)),
            (1, "sc_out", 0, clean.clone()),
            (2, "sc_out", 0, lands(SC2, 5)),
            (0, "ga_out", 0, clean.clone()),
            (0, "ga_out", 8, clean.clone()),
            (0, "ga_out", 16, lands(GA, 6)),
        ];
        for (rank, name, off, want) in expect {
            assert_eq!(
                shadow_of(&cluster, rank, sym(name) + off, 8),
                want,
                "{carrier:?}: rank {rank} {name}+{off}"
            );
        }

        let log = log.lock();
        assert_eq!(log.sends, vec![4], "{carrier:?}: on_send tainted bytes");
        let p2p_delivered = if carrier == TaintCarrier::None { 0 } else { 4 };
        assert_eq!(log.delivered, vec![p2p_delivered], "{carrier:?}");
        // (src, dest, tag, round, tainted bytes, provenance bits): the
        // send lands in round 3, then one collective per round from 4 on
        // (the reduce in round 5 carries no cross-rank taint).
        let edge = |dest: u32, tag: u64, round: u64, tainted_bytes: usize, prov_bits: u32| {
            (2u32, dest, tag, round, tainted_bytes, prov_bits)
        };
        let mut want_edges = Vec::new();
        match carrier {
            TaintCarrier::Hub => want_edges.push(edge(0, 5, 3, 4, 1 << 1)),
            TaintCarrier::Header => want_edges.push(edge(0, 5, 3, 4, 0)),
            TaintCarrier::None => {}
        }
        if coll {
            want_edges.extend([
                edge(0, COLL + 1, 4, 1, 1 << 2),
                edge(1, COLL + 1, 4, 1, 1 << 2),
                edge(0, COLL + 3, 6, 2, 1 << 3),
                edge(1, COLL + 3, 6, 2, 1 << 3),
                edge(0, COLL + 4, 7, 1, 1 << 4),
                edge(0, COLL + 5, 8, 8, 1 << 6),
            ]);
        }
        let got: Vec<_> = log
            .edges
            .iter()
            .map(|e| (e.src, e.dest, e.tag, e.round, e.tainted_bytes, e.prov_bits))
            .collect();
        assert_eq!(got, want_edges, "{carrier:?}: ordered edges");
        assert!(log.edges.iter().all(|e| e.seq == 0), "{carrier:?}");
        assert_eq!(
            run.cross_rank_tainted_deliveries,
            want_edges.len() as u64,
            "{carrier:?}: one delivery per tainted landing"
        );
    }
}

/// With taint off, a point-to-point receive leaves the destination's
/// shadow alone while a collective rewrites it: stale injected taint on a
/// receive buffer survives the former and is cleared by the latter.
#[test]
fn taint_off_keeps_p2p_shadow_and_collectives_clear_it() {
    let prog = data_path_program();
    let sym = |s: &str| prog.symbol(s).expect("symbol");
    let mut cfg = small_config(3);
    cfg.taint_policy = TaintPolicy::Disabled;
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 3).expect("launch");
    seed_word(&mut cluster, 2, sym("bc"), u64::MAX, 1);
    seed_word(&mut cluster, 0, sym("p2p_dst"), u64::MAX, 2);
    seed_word(&mut cluster, 0, sym("bc"), u64::MAX, 3);
    seed_word(&mut cluster, 1, sym("all_out"), u64::MAX, 4);
    let run = cluster.run();
    assert!(run.all_success(), "{run:?}");
    assert_eq!(run.cross_rank_tainted_deliveries, 0);
    assert_eq!(
        shadow_of(&cluster, 0, sym("p2p_dst"), 8),
        word_shadow(u64::MAX, 2, true)
    );
    for (rank, name) in [(0, "bc"), (1, "bc"), (1, "all_out")] {
        assert_eq!(
            shadow_of(&cluster, rank, sym(name), 8),
            word_shadow(0, 0, false),
            "rank {rank} {name}"
        );
    }
    // The root's own buffer is never written by its broadcast.
    assert_eq!(
        shadow_of(&cluster, 2, sym("bc"), 8),
        word_shadow(u64::MAX, 1, true)
    );
}
