(** Modeled unreliable transport with a reliable-delivery layer on top.

    The one module that counts and times a message. [send] and [rpc]
    are drop-in replacements for the {!Dsm_sim.Cluster} cost functions,
    and [deliver] carries a message whose fault-free delivery time the
    caller computed itself. Each routes the message over a network which
    may drop, duplicate, delay or reorder copies according to the run's
    {!Plan}, and recovers exactly-once in-order delivery with sequence
    numbers, acks, timeout + exponential-backoff retransmission,
    duplicate suppression and per-flow resequencing. Recovery costs
    (retransmit wire time, timeout stalls, ack overhead) are charged to
    the virtual clocks and counted in the new {!Dsm_sim.Stats} fields
    ([retransmits], [timeouts], [dropped], [duplicates]).

    With a passthrough plan (all fault rates zero) every function
    computes exactly what the corresponding [Cluster] function does —
    bit-identical clocks, statistics and trace. All fault decisions come
    from a counter-based deterministic PRNG, so a faulty run is exactly
    reproducible from [(config, seed)]. *)

type t

val create : ?plan:Plan.t -> Dsm_sim.Cluster.t -> t
(** Build a transport over a cluster. [plan] defaults to
    {!Plan.of_config} of the cluster's configuration.
    @raise Invalid_argument if the plan fails {!Plan.validate}. *)

val cluster : t -> Dsm_sim.Cluster.t
val plan : t -> Plan.t

val set_trace : t -> Dsm_trace.Sink.t option -> unit
(** Attach/detach the sink that receives [Msg_drop]/[Msg_dup]/
    [Retransmit]/[Timeout_fire]/[Ack] events. *)

val set_vc_source : t -> (int -> int array) -> unit
(** Provide each processor's live vector clock for emitted events (the
    sink snapshots it; the DSM run-time points this at its protocol
    vector clocks so net events satisfy the checker's vc rules).
    Defaults to all-zero clocks. *)

val send : t -> src:int -> dst:int -> bytes:int -> float
(** Reliable one-way message of [bytes] payload bytes; returns the
    delivery time at [dst] as a virtual clock value in µs (resequenced:
    never earlier than the previous [src]→[dst] delivery, after any
    retransmissions and jitter). The sender's CPU is charged for the
    initial attempt and every retransmission; the ack leg is charged to
    both ends: {!deliver} after charging the sending cost. None of this
    touches the host clock — like every cost function here it is
    deterministic given [(plan, call sequence)]. *)

val deliver : t -> src:int -> dst:int -> bytes:int -> at:float -> float
(** One-way message of [bytes] payload bytes whose fault-free delivery
    time at [dst] is [at] and whose sending CPU the caller has already
    charged (a reply or forward sent from inside a handler, a barrier
    departure, a broadcast hop). Counts one message and [bytes] on
    [src]. Under a passthrough plan returns [at]; otherwise returns the
    reliable delivery time, charging [src] for each retransmission,
    [dst] for duplicate suppression and both ends for the ack. *)

val rpc :
  t -> src:int -> dst:int -> req_bytes:int -> resp_bytes:int ->
  service:float -> unit
(** Synchronous request/response over two reliable legs, with [service]
    µs of handler time at [dst] between them. Request-leg faults delay
    handler occupancy at [dst] (and so every later request serialized
    behind it — the hot-spot effect); response-leg faults delay the
    requester's unblock time and charge the responder's CPU. Advances
    [src]'s virtual clock past the full roundtrip; does not suspend the
    calling fiber. *)

(** {1 Exposed for tests} *)

val u01 : seed:int -> int -> float
(** [u01 ~seed n] is the [n]-th uniform draw in [0,1) of the
    counter-based splitmix64 generator driving all fault decisions: a
    pure function of [(seed, n)], so tests can predict — and replay
    tools re-derive — every drop/duplicate/jitter choice of a run
    without sharing generator state. *)
