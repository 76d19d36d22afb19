(** 3D Fast Fourier Transform, after the NAS FT benchmark: per iteration an
    evolve step, local x/y FFTs on the z-slabs, a distributed transpose
    (producer-consumer communication at a barrier), a local z FFT, and the
    inverse transpose. The transpose reads a thin slice of every source
    page, so base TreadMarks moves whole-page diffs that mostly carry other
    readers' slices — the false-sharing amplification [Push] removes. All
    five optimization levels apply. *)

type params = { n : int; iters : int; bf_cost : float }
(** Cube edge, iteration count and calibrated per-butterfly cost (us). Exposed so callers can size custom runs. *)

val bounds : int -> int -> int -> int * int
(** [bounds n nprocs p] — the inclusive slab [(lo, hi)] along one
    dimension that processor [p] owns. Exposed for the static
    sharing-pattern models ({!Dsm_lint.App_models}). *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
