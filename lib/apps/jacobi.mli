(** Jacobi iteration (Section 2 of the paper, Figures 1 and 2):
    nearest-neighbour averaging over a shared grid, interior columns
    block-partitioned. The running example of the paper: the optimized
    versions follow the compiler output of Figure 2 — a
    [Validate(b[...], WRITE_ALL)] after Barrier(1) and Barrier(2) replaced
    by [Push]. All five optimization levels apply. *)

type params = { m : int; iters : int; update_cost : float; copy_cost : float }
(** Grid edge, iteration count, calibrated per-element costs (us). The
    record is exposed so callers can size custom runs, e.g.
    [{ small with m = 128; iters = 3 }]. *)

val bounds : int -> int -> int -> int * int
(** [bounds m nprocs p] — the inclusive interior-column block
    [(lo, hi)] that processor [p] owns. Exposed for the static
    sharing-pattern models ({!Dsm_lint.App_models}). *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
