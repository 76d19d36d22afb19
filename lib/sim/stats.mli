(** Per-processor execution statistics.

    These counters back Table 2 of the paper (percentage reductions in page
    faults, messages, and data) and the detailed per-application discussion
    in Section 6. *)

type t = {
  mutable messages : int;  (** messages sent by this processor *)
  mutable bytes : int;  (** payload bytes sent by this processor *)
  mutable segv : int;  (** simulated page faults (access violations) *)
  mutable mprotects : int;  (** memory-protection operations *)
  mutable twins : int;  (** twin (page copy) creations *)
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable diff_bytes_applied : int;
  mutable lock_acquires : int;
  mutable barriers : int;
  mutable validates : int;  (** calls to the augmented [Validate] interface *)
  mutable pushes : int;  (** calls to the augmented [Push] interface *)
  mutable broadcasts : int;  (** barrier-time data broadcasts *)
  mutable retransmits : int;
      (** reliable-layer retransmissions sent after a delivery-attempt loss *)
  mutable timeouts : int;  (** retransmission timeouts fired *)
  mutable dropped : int;  (** delivery attempts lost by the modeled network *)
  mutable duplicates : int;
      (** network-duplicated deliveries suppressed by the reliable layer *)
  mutable home_flushes : int;
      (** HLRC: eager diff flushes sent to a page's home at release *)
  mutable home_flush_bytes : int;  (** HLRC: payload bytes of those flushes *)
  mutable home_fetches : int;
      (** HLRC: full-page copies fetched from a home at a fault *)
  mutable home_fetch_bytes : int;  (** HLRC: payload bytes of those fetches *)
  mutable invals : int;
      (** invalidate backend: invalidation requests sent to sharers *)
  mutable downgrades : int;
      (** invalidate backend: exclusive copies downgraded to shared *)
  mutable proto_switches : int;
      (** adaptive backend: per-page protocol switches at barriers *)
  mutable obj_skips : int;
      (** object-granularity allocations: consistency fetches avoided
          because every stale object of the page was outside the
          validated objects *)
  mutable crashes : int;  (** fault tolerance: crash-stop failures executed *)
  mutable restarts : int;
      (** fault tolerance: rejoins from the last checkpoint *)
  mutable suspects : int;
      (** fault tolerance: peers declared crashed after RTO exhaustion *)
  mutable quorum_writes : int;
      (** hlrc-r: release-time flushes acknowledged by a replica quorum *)
  mutable quorum_reads : int;
      (** hlrc-r: misses served by a quorum read from a replica group *)
  mutable ckpts : int;  (** fault tolerance: checkpoints taken *)
}

val create : unit -> t
(** All counters zero. *)

type counter = { name : string; get : t -> int; set : t -> int -> unit }
(** One counter: its field name and accessors. *)

val counters : counter list
(** Every field of {!t}, once, in declaration order. {!add}, {!total} and
    {!pp} are folds over this list, so a new field needs only a record
    field, its [create] initializer and one entry here. *)

val find : string -> counter
(** The counter with this field name; raises [Not_found] otherwise. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] field-wise. *)

val total : t array -> t
(** Field-wise sum over all processors. *)

val pp : Format.formatter -> t -> unit
(** [name=value] for every nonzero counter, in {!counters} order,
    separated by single spaces on one line. *)
