(** Sparse writer -> interval-seq watermark maps.

    The per-page [applied]/[known] protocol watermarks, stored sparsely
    instead of as [nprocs]-sized arrays: dense arrays cost O(nprocs) words
    per (processor, page) pair — prohibitive at the 1024-processor scaling
    configurations. Absent keys read as 0. Iteration is in ascending
    writer order, so replacing a [for q = 0 to nprocs - 1] scan with
    {!iter} preserves the exact visit order (and therefore bit-identical
    simulated results).

    {b Representation.} One flat [int array] of interleaved pairs
    [[k0; v0; k1; v1; ...]], sorted ascending by key, plus an entry count.
    Capacity starts at one pair and doubles on overflow, so a map's size is
    O(entries), never O(nprocs). With [n] entries:
    - {!get}, {!find_opt}: O(log n) binary search, no allocation;
    - {!set} on a present key: O(log n), in place, no allocation;
    - {!set} on a new key: O(n) tail shift, amortised O(1) growth;
    - {!iter}, {!exists}, {!keys}: O(n);
    - {!union_keys}, {!iter_above}, {!dominates}, {!exists_gt}: one
      O(n + m) merge walk;
    - {!to_pairs}: an O(n) copy (see there).

    Shared by the run-time ([Dsm_tmk], which re-exports it) and the trace
    checker ([Dsm_trace.Check]). *)

type t

val create : unit -> t
(** An empty map; allocates no entry storage until the first {!set}. *)

val get : t -> int -> int

val find_opt : t -> int -> int option
(** [find_opt t k] distinguishes an explicit 0 entry from an absent key —
    the checker's last-applied-stamp tables default to "never", not 0. *)

val set : t -> int -> int -> unit

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f writer seq] for each explicit entry, ascending by
    writer. Entries with value 0 are visited too (a rollback can store 0).
    [f] must not {!set} a new key in [t] itself (updating other maps, or a
    present key's value, is fine). *)

val exists : (int -> int -> bool) -> t -> bool

val to_pairs : t -> (int * int) list
(** Ascending snapshot of the explicit entries. The map is mutable, so
    this copies — O(n) — and later {!set}s never change the returned
    list: safe to store in a checkpoint. *)

val of_pairs : (int * int) list -> t
(** Build a map from a snapshot; the list must be ascending by key. *)

val keys : t -> int list
(** Explicit keys, ascending. *)

val union_keys : t -> t -> int list
(** Keys explicit in either map, ascending. *)

val iter_above : (int -> int -> int -> unit) -> t -> t -> unit
(** [iter_above f a b] calls [f k va vb] for each explicit entry [(k, va)]
    of [a] with [va > vb], where [vb = get b k], ascending by key: the
    writers whose known watermark is ahead of the applied one, in one
    O(n + m) merge walk. [f] must not {!set} a new key in [a] or [b]. *)

val dominates : t -> t -> bool
(** [dominates a b] iff [get a k >= get b k] for every key [k]. *)

val exists_gt : t -> t -> bool
(** [exists_gt a b] iff [get a k > get b k] for some key [k]. *)
