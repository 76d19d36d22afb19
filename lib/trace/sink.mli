(** Lossless, append-only event log.

    The run-time carries a [Sink.t option]; instrumentation sites test it
    before building an event, so a disabled trace costs one comparison and
    allocates nothing. Emission never touches the simulated clocks or the
    statistics counters: enabling tracing cannot perturb the cost model
    (verified by the determinism property test). *)

type t

val default_capacity : int
(** Initial log allocation, in events (the log grows as needed). *)

val create : ?capacity:int -> nprocs:int -> unit -> t
(** An empty log with room for [capacity] events before it first grows. *)

val nprocs : t -> int

val capacity : t -> int
(** Events the log holds before it next grows. *)

val emit : t -> proc:int -> time:float -> vc:int array -> Event.kind -> unit
(** Append an event whose id is its index in the log. [vc] may be the
    emitter's live clock: the sink stores a snapshot, copied only when it
    differs from [proc]'s previous one (equal snapshots share one array).
    Snapshots are never mutated after emission. *)

val emitted : t -> int
(** Events emitted so far. *)

val dropped : t -> int
(** Always 0: the log keeps every event. *)

val proc_events : t -> int -> Event.t list
(** One processor's events, in emission order (one pass over the log). *)

val events : t -> Event.t list
(** Every event, in emission order. *)

val write_jsonl : out_channel -> t -> unit
(** One JSON object per line, in emission order. *)
