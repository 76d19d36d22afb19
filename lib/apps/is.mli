(** Integer Sort from the NAS benchmarks: bucket-sort ranking with private
    counting, staggered lock-protected updates of the shared buckets
    (migratory data) and a read-everything ranking phase. The program where
    base TreadMarks suffers diff accumulation, and where
    [Validate(..., READ&WRITE_ALL)] pays the most; no [Push] (the last
    lock holder is statically unknown) and no XHPF (indirect accesses). *)

type params = {
  n_keys : int;
  n_buckets : int;
  reps : int;
  key_cost : float;  (** per key counted/ranked *)
  bucket_cost : float;  (** per bucket summed/prefixed *)
}
(** Key/bucket counts, repetitions and calibrated per-item costs (us). Exposed so callers can size custom runs. *)

val run_page_size : nprocs:int -> page_size:int -> params -> int
(** The page size the tmk run actually uses: the configured size capped
    so a bucket section is a whole number of pages when the processor
    count divides the bucket count. Exposed for the static
    sharing-pattern models ({!Dsm_lint.App_models}). *)

val bucket_section : params -> nprocs:int -> int -> int * int
(** [bucket_section prm ~nprocs s] is the bucket range [[lo, hi)] of
    section [s], the one processor [s] zeroes and lock [s] protects:
    equal sections, the last one taking the remainder. Processor [p]
    owns the keys of the same split of [n_keys]. *)

val large : params
val small : params

include Workload.S with type size = params and type behavior = unit
