(** Regular section descriptors (RSDs), after Havlak & Kennedy (reference
    [13] of the paper).

    An RSD concisely describes the set of array elements accessed by a loop
    nest: per array dimension a triplet [lo:hi:stride] (inclusive bounds, in
    elements). RSDs support union and intersection; union is in general a
    conservative (bounding) approximation, and the descriptor records whether
    it is still {e exact}, because the paper's transformation (Section 4.2)
    may only apply the consistency-disabling optimizations ([WRITE_ALL],
    [Push]) when the analysis is exact. *)

type dim = { lo : int; hi : int; stride : int }
(** One dimension: indices [lo, lo+stride, ..., <= hi]. [stride >= 1].
    Empty if [hi < lo]. *)

type t = { dims : dim array; exact : bool }

val make : ?exact:bool -> (int * int * int) list -> t
(** [make [(lo, hi, stride); ...]] builds a descriptor, dimension order
    matching the array's (first = innermost/contiguous, Fortran style). *)

val ndims : t -> int
val is_empty : t -> bool

val size : t -> int
(** Number of elements described. *)

val mem : t -> int array -> bool
(** Does the descriptor contain the given index point? *)

val equal : t -> t -> bool

val inter : t -> t -> t
(** Exact intersection when strides agree or divide each other on each
    dimension; conservative otherwise (result flagged inexact). *)

val union : t -> t -> t
(** Bounding union. The result is flagged exact only when one argument
    contains the other, or the two differ in a single dimension whose ranges
    overlap or are adjacent with equal strides (the cases the paper's
    analysis produces, e.g. the Jacobi read sections merging into
    [1,M : begin-1, end+1]). *)

val contains : t -> t -> bool
(** [contains a b]: every element of [b] is in [a] (conservative: may return
    false for exotic stride combinations). *)

val inexact : t -> t
(** Same elements, flagged as not exactly describing the access set. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation: [\[lo:hi:stride, ...\]]. *)
