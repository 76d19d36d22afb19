(** Modified Gram-Schmidt: orthonormalization of a cyclically distributed
    set of vectors. Like Gauss, the normalized vector is logically
    broadcast each iteration and barrier-time broadcast is the profitable
    optimization; the strided cyclic ownership costs extra run-time work,
    which keeps both the optimized DSM and XHPF behind PVMe (Section 6.2). *)

type params = { m : int; n : int; dot_cost : float }
(** Vector length, vector count and calibrated per-element cost (us). Exposed so callers can size custom runs. *)

val page_size : params -> int
(** The page size the tmk run forces for this problem size. Exposed for
    the static sharing-pattern models ({!Dsm_lint.App_models}). *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
