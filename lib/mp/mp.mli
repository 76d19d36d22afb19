(** PVM-like message passing on the simulated cluster: the substrate for the
    hand-coded ("PVMe") baselines of the paper's evaluation.

    As in the paper's measurements, the message-passing programs run with
    interrupts disabled (Section 5, footnote 1): receives poll, so no
    interrupt cost is charged at the receiver. *)

type system
type t
(** Per-processor handle. *)

val make : Dsm_sim.Config.t -> system

val run : system -> (t -> unit) -> unit
(** Run one fiber per processor to completion on {!Dsm_sim.Engine.run}. *)

val pid : t -> int
val nprocs : t -> int

val charge : t -> float -> unit
(** Account microseconds of local computation. *)

val time : t -> float
(** Current virtual clock of the calling processor, us — for workloads
    that timestamp individual operations (the KV cache's latency
    percentiles). *)

val send_floats : t -> dst:int -> tag:int -> float array -> unit
(** Asynchronous typed send (the payload is copied). *)

val recv_floats : t -> src:int -> tag:int -> float array
(** Blocking receive, matching on sender and tag. *)

val sendrecv_floats :
  t -> dst:int -> src:int -> tag:int -> float array -> float array
(** Send to [dst] and receive from [src] with the same tag — the classic
    boundary-exchange idiom. *)

val bcast_floats : t -> root:int -> tag:int -> float array -> float array
(** Binomial-tree broadcast; every processor (including the root) returns
    the payload. *)

val allreduce_sum : t -> tag:int -> float array -> float array
(** Element-wise sum across processors (reduce-to-0 + broadcast). *)

val allreduce_max : t -> tag:int -> float array -> float array

val barrier : t -> unit
(** Flat message-passing barrier (gather to 0 + broadcast), for the rare MP
    phases that need one. *)

val elapsed : system -> float
val total_stats : system -> Dsm_sim.Stats.t
