(** Pseudo-Fortran rendering of IR programs, in the style of the paper's
    Figures 1 and 2 — used by the compiler demo and for eyeballing what the
    transformation produced. *)

val program_to_string : Ir.program -> string
