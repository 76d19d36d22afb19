(** A miniature HPF-style run-time, the substrate for the "XHPF" baseline.

    The Forge XHPF compiler translates data-parallel Fortran into message
    passing over a generic distribution run-time: communication goes through
    general section pack/unpack routines rather than the hand-specialized
    buffers of a PVMe program. This module reproduces that structure on top
    of {!Dsm_mp.Mp}: the same algorithms as the hand-coded baselines, plus
    per-element packing charges and per-operation distribution bookkeeping.
    The result tracks the paper's observation that XHPF is usually within a
    few percent of PVMe, a bit slower where access patterns are strided
    (MGS, Gauss). *)

val shift_exchange :
  Dsm_mp.Mp.t -> tag:int -> left:float array -> right:float array ->
  float array option * float array option
(** BLOCK-distribution halo exchange: send [left] to processor [p-1] and
    [right] to [p+1]; returns the halos received from the left and right
    neighbors (None at the ends). Charges generic packing on both sides. *)

val bcast_section : Dsm_mp.Mp.t -> root:int -> tag:int -> float array -> float array
(** Broadcast of an owned section through the distribution run-time. *)

val charge_pack : Dsm_mp.Mp.t -> int -> unit
(** Charge generic pack/unpack handling for [n] elements (used by XHPF app
    codes for communications they route through {!Dsm_mp.Mp} directly). *)
