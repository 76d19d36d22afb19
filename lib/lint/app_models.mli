(** Per-application access models for the static sharing-pattern
    classifier.

    Each model is a small IR program whose barrier epochs reproduce the
    shared-array accesses of the corresponding {!Dsm_apps} application:
    same allocation order, same partition functions (imported from the
    apps), same per-epoch read/write sections. [dsm_lint plan] feeds a
    model to {!Classify.plan} to produce the protocol-placement plan
    that [dsm_run --plan] then consumes. *)

val jacobi :
  Dsm_apps.Jacobi.params ->
  nprocs:int ->
  page_size:int ->
  Classify.model

val gauss :
  Dsm_apps.Gauss.params -> nprocs:int -> page_size:int -> Classify.model

val mgs : Dsm_apps.Mgs.params -> nprocs:int -> page_size:int -> Classify.model

val shallow :
  Dsm_apps.Shallow.params -> nprocs:int -> page_size:int -> Classify.model

val fft3d :
  Dsm_apps.Fft3d.params -> nprocs:int -> page_size:int -> Classify.model

(** {1 Registry} *)

type size = Small | Large

type spec = {
  name : string;
  build : nprocs:int -> page_size:int -> size:size -> Classify.model;
}

val all : spec list
(** One spec per shipped application, in the CLI's order. *)

val find : string -> spec option
val names : string list
