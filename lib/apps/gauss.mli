(** Gaussian elimination with partial pivoting, columns distributed
    cyclically. The per-iteration pivot row number and multiplier column
    are logically broadcast through a shared work array; merging data
    movement with synchronization (barrier-time broadcast) is the most
    effective optimization, as in the paper. No [Push] (two barriers per
    iteration carry anti-dependences). *)

type params = { m : int; update_cost : float }
(** Matrix edge and calibrated per-element elimination cost (us). Exposed so callers can size custom runs. *)

val page_size : params -> int
(** The page size the tmk run forces for this problem size. Exposed for
    the static sharing-pattern models ({!Dsm_lint.App_models}). *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
