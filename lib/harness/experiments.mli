(** Regeneration of every table and figure of the paper's evaluation
    (Section 5 and 6), printed in the same row/series structure, plus the
    extension experiments. Each experiment is a view over a {!Grid.t}: it
    reads its rows from the grid, so a row two experiments share runs
    once, and the grid's configuration is where every view starts. *)

val table1 : Format.formatter -> Grid.t -> unit
(** Table 1: applications, data set sizes, and uniprocessor execution
    times. *)

val table2 : Format.formatter -> Grid.t -> unit
(** Table 2: percentage reduction in page faults ("segv"), messages
    ("msg"), and data for the compiler-optimized version of TreadMarks
    versus the base version. *)

val figure5 : Format.formatter -> Grid.t -> unit
(** Figure 5: 8-processor speedups for TreadMarks, optimized TreadMarks,
    XHPF and PVMe (XHPF missing for IS). *)

val figure6 : Format.formatter -> Grid.t -> unit
(** Figure 6: speedups under the cumulative optimization levels, per
    application and data set, with XHPF and PVMe bars. *)

val figure7 : Format.formatter -> Grid.t -> unit
(** Figure 7: synchronous vs. asynchronous data fetching on the large data
    sets. *)

val scaling : Format.formatter -> Grid.t -> unit
(** Beyond the paper: all six applications on a 64-processor simulated
    cluster under all four coherence backends, with weak-scaled data sets
    (the per-processor slab stays meaningful as the cluster grows).
    Section 6.4 conjectures that consistency overhead "increases at larger
    numbers of processors" — this tier is where the curves start to bend,
    with IS's all-to-all bucket updates as the deliberate stress case. *)

val scaling_deep : Format.formatter -> Grid.t -> unit
(** Beyond the paper: the 256- and 1024-processor tiers of the scaling
    study (nearest-neighbour and reduction codes only — see the comment in
    the implementation for why IS and 3D-FFT stay at 64). Simulating a
    barrier's write-notice exchange costs the host O(nprocs²), so this
    experiment is part of the full bench set but not the quick CI gate. *)

val ablation : Format.formatter -> Grid.t -> unit
(** Beyond the paper: each run-time mechanism this implementation calls out
    in DESIGN.md, toggled off individually — barrier-time broadcast,
    WRITE_ALL supersede pruning, and hot-spot request queueing — on the
    workload that exercises it. *)

val protocol_matrix : Format.formatter -> Grid.t -> unit
(** Beyond the paper: the full protocol family — homeless LRC, home-based
    LRC, the directory-based single-writer invalidate protocol and the
    adaptive per-page switcher — on every application (small data sets),
    at the fault-driven base level and at the deepest compiler-optimized
    level. Messages, data volume and speedup side by side, with the
    per-row winners marked: which consistency protocol suits which
    sharing pattern, and how much the compiler's annotations flatten the
    differences. *)

val faults : Format.formatter -> Grid.t -> unit
(** Beyond the paper: a drop-rate sweep over the modeled unreliable
    transport (0/1/5% loss with duplication and delivery jitter) on four
    applications at 8 processors. Application results must be unchanged —
    the reliable-delivery layer recovers every loss — so the table reports
    only the time and the fault counters. *)

val availability : Format.formatter -> Grid.t -> unit
(** Beyond the paper: the cost of fault tolerance on the hlrc backend —
    k-replicated homes at k=1/3/5 with and without a mid-run crash and
    recovery, on four applications at 8 processors. Reports time,
    messages, bytes and the quorum/checkpoint counters; every
    configuration's final memory digest must be bit-identical to the
    unreplicated baseline (the run aborts otherwise). *)

val kv : Format.formatter -> Grid.t -> unit
(** Beyond the paper: the sharded key-value/session cache — a
    latency-bound workload, reported as tail-latency percentiles (p50,
    p95, p99 over all operations) and per-operation messages and bytes
    rather than speedups. Two operation mixes (read-mostly and
    write-heavy) crossed with the store's allocation granularity (packed
    64-byte objects vs the page-granular control) over all four
    coherence backends, plus the hand-coded message-passing delegation
    baseline. Ends with two self-checks: object granularity must shed
    messages against the page control under the write-heavy skewed mix
    (the false-sharing claim), and a traced run must replay cleanly
    through the LRC invariant checker while exercising object skips. *)

val micro : Format.formatter -> Grid.t -> unit
(** Section 5's platform microbenchmarks: minimum roundtrip, free-lock
    acquisition, 8-processor barrier, and the memory-management cost curve,
    compared against the published SP/2 numbers. *)
