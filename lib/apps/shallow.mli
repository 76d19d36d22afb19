(** The NCAR shallow-water benchmark: three finite-difference phases per
    time step over 13 shared arrays on a periodic grid, columns
    block-partitioned. Only communication aggregation and consistency
    elimination apply (merging with synchronization and Push would need
    interprocedural analysis, Section 6.2); the consistency-elimination
    gains are relatively larger than Jacobi's because many more pages are
    in use. *)

type params = { m : int; n : int; steps : int; point_cost : float }
(** Grid dimensions, time steps and calibrated per-point cost (us). Exposed so callers can size custom runs. *)

val bounds : int -> int -> int -> int * int
(** [bounds n nprocs p] — the inclusive column block [(jlo, jhi)] that
    processor [p] owns. Exposed for the static sharing-pattern models
    ({!Dsm_lint.App_models}). *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
