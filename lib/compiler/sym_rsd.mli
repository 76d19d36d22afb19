(** Symbolic regular section descriptors: RSDs whose bounds are linear
    expressions over loop-invariant variables (problem parameters and the
    processor-dependent partition bounds such as [begin], [end]).

    These are the descriptors the compiler computes at analysis time and
    plants in the transformed program; the run-time evaluates them with the
    concrete per-processor bindings (the paper's
    [Push(b\[1,M : begin(p)-1, end(p)+1\], ...)]). *)

type dim = { lo : Lin.t; hi : Lin.t; stride : int }
type t = { dims : dim list; exact : bool }

val make : ?exact:bool -> (Lin.t * Lin.t * int) list -> t

val union : probe:(string -> int) -> t -> t -> t
(** Per-dimension bounding union. Bound comparisons are decided
    symbolically when the difference is a known constant, and under the
    [probe] sample binding otherwise (in which case the result is flagged
    inexact, since the comparison is only tested, not proved). Equal-stride
    arguments whose lower bounds provably differ by a non-multiple of the
    stride (misaligned combs, e.g. red-black's odd reads joined with its
    even writes) also yield an inexact result: the union comb misses
    elements of one argument. *)

val contains : probe:(string -> int) -> t -> t -> bool
(** Conservative containment test, same comparison discipline. *)

val inexact : t -> t
(** Same elements, flagged as not exactly describing the access set (used
    for accesses under conditionals). *)

val eval : (string -> int) -> t -> Dsm_rsd.Rsd.t
val pp : string -> Format.formatter -> t -> unit
(** [pp name] prints in the paper's notation, e.g.
    [b\[1:M, begin - 1:end + 1\]]. *)
