(** Linear (affine) integer expressions over named variables: the currency
    of regular section analysis. The paper's analysis handles array indices
    that depend on zero or one induction variable, with loop bounds that are
    themselves linear functions of variables (Section 4.4). *)

type t = { const : int; terms : (string * int) list }
(** [const + sum coeff*var]; terms sorted by variable name, no zero
    coefficients. *)

val const : int -> t
val var : ?coeff:int -> string -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val offset : t -> int -> t

val equal : t -> t -> bool
val coeff_of : t -> string -> int

val subst : t -> string -> t -> t
(** [subst t v e]: replace variable [v] by expression [e]. *)

val eval : (string -> int) -> t -> int
(** Evaluate under a full binding.
    @raise Not_found when a variable is unbound. *)

val diff_const : t -> t -> int option
(** [diff_const a b] is [Some (a - b)] when the difference is a known
    constant — the decidable comparison the symbolic analysis relies on. *)

val pp : Format.formatter -> t -> unit
(** Fortran-flavoured rendering, e.g. [begin - 1], [2*k + 1]. *)
