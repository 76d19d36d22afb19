(** Shared state of a simulated cluster run: per-processor virtual clocks,
    statistics, and the network cost model.

    All times are in microseconds of virtual time. Computation is charged
    explicitly with {!charge}; point-to-point communication with the
    [send]/[rpc] cost functions, which update both clocks and statistics.
    The run-time reaches them only through {!Dsm_net.Net}, which
    reproduces them exactly under a fault-free plan.

    Request handlers (diff requests, lock grants) in the DSM run synchronously
    in simulation: the requester directly manipulates the target's state and
    the cost functions account for the interrupt time stolen from the target
    processor (see DESIGN.md section 4).

    Nothing here is locked: {!Engine.run} resumes one fiber at a time on
    one domain, so clocks, statistics and occupancy intervals need no
    protection of their own. *)

type t = {
  cfg : Config.t;
  clocks : float array;  (** per-processor virtual clock, us *)
  stats : Stats.t array;
  busy_start : float array;
  busy_until : float array;
      (** per-processor request-handler occupancy interval: overlapping
          requests to one processor serialize (hot-spot contention) *)
  mutable pages_in_use : int;
      (** shared-space pages allocated so far; fault and mprotect costs are a
          linear function of this, as measured on AIX 3.2.5 in Section 5 *)
}

val create : Config.t -> t
val nprocs : t -> int

val time : t -> int -> float
(** Current virtual clock of a processor. *)

val elapsed : t -> float
(** Maximum clock over all processors: the parallel execution time. *)

val charge : t -> int -> float -> unit
(** [charge t p dt] advances processor [p]'s clock by [dt] us of local work. *)

val sync_clock : t -> int -> float -> unit
(** [sync_clock t p at] sets [p]'s clock to [max (time t p) at]: the causal
    effect of consuming an event that happened at time [at] elsewhere. *)

(** {1 Network cost functions} *)

val send : t -> src:int -> dst:int -> bytes:int -> float
(** One-way message: charges the sender its CPU overhead and the wire time,
    counts one message and [bytes] payload bytes, and returns the arrival
    time at [dst]. The receiver's costs are charged when it consumes the
    message (see {!recv_charge}). *)

val recv_charge : t -> dst:int -> arrival:float -> interrupt:bool -> unit
(** Consume a message that arrived at [arrival]: advances [dst]'s clock to
    the arrival time plus receive overhead (plus interrupt dispatch if
    [interrupt]). *)

val rpc :
  t -> src:int -> dst:int -> req_bytes:int -> resp_bytes:int ->
  service:float -> unit
(** Synchronous request/response pair ([src] blocks for the reply). Charges
    the requester the full roundtrip and the target the interrupt-stolen
    handler time; counts two messages. With zero payloads and zero service
    this costs the paper's 365 us minimum roundtrip. *)

val occupy : t -> int -> arrival:float -> handler_time:float -> float
(** Claim a processor's request handler: returns the service start time,
    serializing behind an overlapping busy period. *)

val mm_op : t -> int -> npages:int -> unit
(** Charge a memory-management operation (page fault handling or an mprotect
    call covering [npages] pages) to processor [p]; cost is linear in
    {!field-pages_in_use}. Counts as one mprotect in the statistics only when
    recorded separately by the caller. *)
