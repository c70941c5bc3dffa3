//! Backend-conformance suite for the `Comm` v2 contract, run against
//! every backend at several world sizes: `SelfComm` (P = 1) and, via
//! the `HPGMXP_COMM` dispatch in `run_spmd`, `ThreadWorld`
//! (P ∈ {1, 2, 4}) or `SocketWorld` (at the mesh size `hpgmxp-launch`
//! started — the CI matrix covers P ∈ {2, 4}).
//!
//! The contract under test (what the halo engine and solvers rely on):
//! * FIFO delivery per (sender, receiver, tag) triple;
//! * tag matching — receives with a later tag leave earlier-tag
//!   messages parked (MPI's unexpected-message queue), and those
//!   parked messages are still delivered in order;
//! * `wait_any` completes posted receives in *arrival* order, not
//!   post order, and returns `None` once every post is drained;
//! * `try_recv_into` never blocks and never loses parked messages;
//! * collectives (all-reduce, barrier) agree across ranks.

use hpgmxp_comm::{run_spmd, Comm, RecvPost, ReduceOp, SelfComm};

/// World sizes to sweep: free under threads; pinned to the launched
/// mesh under sockets (the world exists before this process ran).
fn world_sizes() -> Vec<usize> {
    match hpgmxp_comm::socket_world_size() {
        Some(p) => vec![p],
        None => vec![1, 2, 4],
    }
}

/// FIFO per (sender, tag) pair even when tags interleave.
fn check_fifo_and_tag_matching<C: Comm>(c: &C) {
    let p = c.size();
    if p == 1 {
        return;
    }
    let me = c.rank();
    let peer = (me + 1) % p;
    let from = (me + p - 1) % p;
    // Two tag streams, interleaved sends: 5 messages per tag.
    for i in 0..5u8 {
        c.send_from(peer, 10, &[i, me as u8]).unwrap();
        c.send_from(peer, 20, &[i + 100, me as u8]).unwrap();
    }
    // Drain the *later-sent* tag stream first: earlier-tag messages
    // must park, in order.
    let mut buf = [0u8; 2];
    for i in 0..5u8 {
        c.recv_into(from, 20, &mut buf).unwrap();
        assert_eq!(buf, [i + 100, from as u8], "tag-20 stream is FIFO");
    }
    for i in 0..5u8 {
        c.recv_into(from, 10, &mut buf).unwrap();
        assert_eq!(buf, [i, from as u8], "parked tag-10 stream stays FIFO");
    }
}

/// Unexpected messages park across a barrier and try_recv finds them
/// without blocking.
fn check_unexpected_message_parking<C: Comm>(c: &C) {
    let p = c.size();
    if p == 1 {
        return;
    }
    let me = c.rank();
    let peer = (me + 1) % p;
    let from = (me + p - 1) % p;
    c.send_from(peer, 77, &[42]).unwrap();
    // The barrier guarantees the message has been sent; it sits parked
    // (or queued) until the matching receive.
    c.barrier().unwrap();
    let mut wrong = [0u8; 1];
    assert!(!c.try_recv_into(from, 78, &mut wrong), "no message with tag 78 exists");
    let mut buf = [0u8; 1];
    assert!(c.try_recv_into(from, 77, &mut buf), "parked message must be pollable");
    assert_eq!(buf, [42]);
}

/// `wait_any` drains whichever posted receive lands first and returns
/// the completed post with its filled buffer.
fn check_wait_any_any_order<C: Comm>(c: &C) {
    let p = c.size();
    let me = c.rank();
    if p == 1 {
        let mut posts: [Option<RecvPost>; 2] = [None, None];
        assert!(c.wait_any(&mut posts).unwrap().is_none(), "no live posts -> None");
        return;
    }
    // Every rank sends one message to every other rank, then posts one
    // receive per peer and drains with wait_any until exhaustion.
    for to in 0..p {
        if to != me {
            c.send_from(to, 5, &[me as u8]).unwrap();
        }
    }
    let mut bufs = vec![[0u8; 1]; p];
    let mut posts: Vec<Option<RecvPost>> = bufs
        .iter_mut()
        .enumerate()
        .filter(|(from, _)| *from != me)
        .map(|(from, buf)| Some(RecvPost::new(from, 5, &mut buf[..])))
        .collect();
    let mut seen = vec![false; p];
    while let Some((slot, post)) = c.wait_any(&mut posts).unwrap() {
        assert!(slot < p - 1);
        let from = post.from;
        assert_eq!(post.buf[0] as usize, from, "payload identifies its sender");
        assert!(!seen[from], "each post completes exactly once");
        seen[from] = true;
    }
    let completed = seen.iter().filter(|&&s| s).count();
    assert_eq!(completed, p - 1, "every peer's message must complete");
}

/// Collectives agree across ranks.
fn check_collectives<C: Comm>(c: &C) {
    let p = c.size();
    let sum = c.allreduce_scalar(c.rank() as f64 + 1.0, ReduceOp::Sum).unwrap();
    assert_eq!(sum, (p * (p + 1) / 2) as f64);
    let mut v = vec![c.rank() as f64, 1.0];
    c.allreduce(&mut v, ReduceOp::Max);
    assert_eq!(v, vec![(p - 1) as f64, 1.0]);
    c.barrier().unwrap();
}

fn conformance<C: Comm>(c: &C) {
    check_fifo_and_tag_matching(c);
    check_unexpected_message_parking(c);
    check_wait_any_any_order(c);
    check_collectives(c);
}

#[test]
fn self_comm_conforms() {
    conformance(&SelfComm);
}

#[test]
fn selected_backend_conforms_at_each_world_size() {
    for p in world_sizes() {
        run_spmd(p, |c| conformance(&c));
    }
}

#[test]
fn selected_backend_conformance_is_repeatable() {
    // The any-order completion path must not corrupt mailbox state
    // across repeated rounds in one world.
    let p = hpgmxp_comm::socket_world_size().unwrap_or(4);
    run_spmd(p, |c| {
        for _ in 0..10 {
            conformance(&c);
        }
    });
}
