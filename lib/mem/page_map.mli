(** Dense page-indexed table: one slot per page number, grown on demand,
    with an exact entry count. It holds the per-processor page metadata
    beside {!Page_table}, which it mirrors in shape. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> int -> 'a option
(** The entry of page [n], without creating one. *)

val find_or_add : 'a t -> int -> (unit -> 'a) -> 'a
(** The entry of page [n], created by the thunk when absent. *)

val length : 'a t -> int
(** Number of entries. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Every entry, ascending by page number. *)

val reset : 'a t -> unit
(** Remove every entry and shrink to the initial size. *)
