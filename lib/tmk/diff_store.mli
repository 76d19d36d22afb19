(** Global repository of diffs and write notices.

    The store holds, per (writer, page), the intervals in which the writer
    modified the page, with the corresponding diffs. It is indexed by page:
    each page keeps its writers' records in an array sorted by writer.
    Diffs are created
    eagerly at a release (see DESIGN.md: the eager-diffing LRC variant) and
    fetched lazily on access misses or through the augmented [Validate]
    interface.

    Two mechanisms bound memory. Under the home-based backend with one
    replica, a writer's own release flush is the only reader of its cells
    (readers install the home copy), so the backend {!retire}s every entry
    a flush has passed and a cell holds at most the diffs of the intervals
    not yet flushed. Everywhere else, diff {e payloads} are coalesced
    while the per-interval {e size accounting} is preserved: a fetch is
    charged the sum of the sizes of the individual historical diffs it
    covers — this reproduces the diff accumulation phenomenon of Section 6
    (IS, MGS) — but applies a merged payload. Payload coalescing is
    performed only when it cannot change values: for intervals every
    processor has already applied, or when the page has a single writer
    so far. An entry is dropped only once every processor has applied it,
    so a page some processor never reads keeps its whole history. A
    [WRITE_ALL] full diff supersedes the writer's earlier payloads {e and}
    sizes for the page (Section 3.1.1: no twins or diffs are made; the
    whole section content stands in).

    Costs: a fetch is two binary searches over the record's entries plus
    one list cell per live unit returned, and coalescing touches only the
    entries it merges or drops — never the page's whole history. *)

type t

type unit_to_apply = {
  order : int;  (** sort key consistent with happens-before (vc sum) *)
  payload : Dsm_mem.Diff.t;
  writer : int;
  upto_seq : int;  (** highest interval sequence number this unit covers *)
}

type fetch_result = {
  units : unit_to_apply list;  (** apply in increasing [order] *)
  charge_bytes : int;  (** what the diff response message carries *)
  ndiffs : int;  (** number of (historical) diffs transferred *)
  high : int;  (** highest interval seq any unit covers; 0 without units *)
}

val create : nprocs:int -> page_size:int -> retire:bool -> t
(** [retire] enables {!retire}: set it exactly when each writer's own
    flush is the only reader of its cells (the home-based backend with one
    replica). Adaptive pages that run the homeless protocol fetch diffs,
    and a replicated writer that restarts re-flushes from interval 0, so
    both keep every entry. *)

val add :
  t -> writer:int -> page:int -> seq:int -> vcsum:int ->
  diff:Dsm_mem.Diff.t -> supersedes:bool -> unit
(** Record a diff for [writer]'s interval [seq]. [vcsum] is the vector-clock
    sum at the {e release} that created the interval — the happens-before
    stamp used to order diff application. [supersedes] marks a
    [WRITE_ALL]-style full-range diff that replaces the writer's earlier
    diffs for the page. *)

val fetch : t -> writer:int -> page:int -> after:int -> upto:int -> fetch_result
(** Diffs of [writer] for [page] with [after < seq <= upto-entitlement]:
    only intervals the requester holds write notices for are sent, except
    that an accumulated diff {e spanning} past [upto] is included whole (the
    absence of a forced materialization proves no foreign interval is
    ordered within its span). The requester's applied watermark should
    advance to [max upto (highest covered seq)]. *)

val fetch_note :
  t -> writer:int -> page:int -> after:int -> upto:int -> by:int ->
  fetch_result
(** [fetch] followed by [note_applied ~by ~seq:(max upto r.high)] — the
    watermark the requester's applied entry rises to — with one lookup of
    the (writer, page) record. *)

val has_any : t -> writer:int -> page:int -> after:int -> bool

val note_applied : t -> writer:int -> page:int -> by:int -> seq:int -> unit
(** Inform the store that processor [by] has applied [writer]'s diffs up to
    [seq] for [page]; enables payload coalescing. *)

val writers_of_page : t -> page:int -> int list
(** Every writer that stored a diff for the page, ascending. *)

val single_writer : t -> page:int -> writer:int -> bool
(** Whether [writer] is the only writer that stored a diff for the page. *)

val latest_vcsum : t -> writer:int -> page:int -> int option
(** Vector-clock sum of the writer's most recent stored diff for the page. *)

val latest_writer : t -> page:int -> int array -> int -> int
(** [latest_writer t ~page writers n]: among [writers.(0 .. n-1)]
    (ascending), the first whose most recent stored diff
    for the page has the largest {!latest_vcsum}; [-1] when none stored
    one. *)

val latest_full_page : t -> writer:int -> page:int -> (int * int) option
(** [(vcsum, seq)] of the writer's most recent diff when that diff
    overwrites the entire page (a materialized WRITE_ALL/READ&WRITE_ALL
    covering the page). Such a diff makes {e every} happens-before diff of
    the page — from any writer — redundant: the fetch logic uses this to
    avoid transferring accumulated overlapping diffs (the IS phenomenon of
    Section 6 disappears under READ&WRITE_ALL). *)

val retire : t -> writer:int -> page:int -> upto:int -> unit
(** [writer]'s flush has brought its home copy of [page] up to interval
    [upto], so its next flush fetches with [after >= upto]: drop every
    entry at or below [upto] instead of merging it. A fetch with such an
    [after] gets the same [charge_bytes], [ndiffs] and [high] as without
    the drop, and its units leave a home copy that held every interval up
    to [after] with the same bytes (they omit a merged base of intervals
    it already holds). A no-op unless the store was created with
    [~retire:true]. *)
