(* Integer Sort from the NAS benchmarks: ranks N keys in [0, Bmax) by bucket
   sort. Private counting, then the shared buckets are updated section by
   section under per-section locks, accessed in a staggered (migratory)
   manner; after a barrier every processor reads all buckets to rank its own
   keys (Section 6 of the paper).

   This is the program where base TreadMarks suffers diff accumulation: the
   shared buckets are modified by every processor, so a faulting processor
   receives many overlapping diffs. The compiler-optimized version validates
   the bucket sections with READ&WRITE_ALL, so no twins or diffs are made
   and a single full copy supersedes the accumulation. XHPF cannot
   parallelize IS (indirect access to the main array). *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
open App_common

let name = "IS"

type params = {
  n_keys : int;
  n_buckets : int;
  reps : int;
  key_cost : float;  (** per key counted/ranked *)
  bucket_cost : float;  (** per bucket summed/prefixed *)
}

(* Stand-ins for the paper's 2^23/2^19 and 2^20/2^15 data sets; per-rep
   uniprocessor compute calibrated to Table 1 (9.12 s and 0.39 s per rep). *)
let large =
  { n_keys = 1 lsl 18; n_buckets = 1 lsl 15; reps = 5; key_cost = 14.0; bucket_cost = 5.0 }

let small =
  { n_keys = 1 lsl 15; n_buckets = 1 lsl 11; reps = 5; key_cost = 4.8; bucket_cost = 2.0 }

let size_name p =
  Printf.sprintf "2^%d-2^%d"
    (int_of_float (log (float_of_int p.n_keys) /. log 2.0))
    (int_of_float (log (float_of_int p.n_buckets) /. log 2.0))

let levels = [ Base; Comm_aggr; Cons_elim; Sync_merge ]

(* Block [p]'s share [lo, hi) of [n] items split over [np] processors:
   equal blocks, the last one taking the remainder. *)
let block ~n ~np p =
  let per = n / np in
  (p * per, if p = np - 1 then n else (p + 1) * per)

let bucket_section prm ~nprocs s = block ~n:prm.n_buckets ~np:nprocs s

(* deterministic key sequence; proc [p] owns the keys of its {!block} *)
let key n_buckets i =
  let x = ((i * 1103515245) + 12345) land 0x3FFFFFFF in
  x mod n_buckets

(* {1 Sequential reference: ranks of every key} *)

let seq_ranks { n_keys; n_buckets; _ } ~nprocs =
  let bucket = Array.make n_buckets 0 in
  for i = 0 to n_keys - 1 do
    bucket.(key n_buckets i) <- bucket.(key n_buckets i) + 1
  done;
  let rank_base = Array.make n_buckets 0 in
  let acc = ref 0 in
  for v = 0 to n_buckets - 1 do
    rank_base.(v) <- !acc;
    acc := !acc + bucket.(v)
  done;
  (* rank of each key instance: global base + occurrence among the owner's
     earlier equal keys (deterministic per-processor tie-breaking) *)
  let ranks = Array.make n_keys 0 in
  let seen = Array.make n_buckets 0 in
  for p = 0 to nprocs - 1 do
    Array.fill seen 0 n_buckets 0;
    let lo, hi = block ~n:n_keys ~np:nprocs p in
    for i = lo to hi - 1 do
      let v = key n_buckets i in
      ranks.(i) <- rank_base.(v) + seen.(v);
      seen.(v) <- seen.(v) + 1
    done
  done;
  ranks

let seq_memo : (int * int * int, ints) Hashtbl.t = Hashtbl.create 4

let reference prm ~nprocs =
  memo seq_memo
    (prm.n_keys, prm.n_buckets, nprocs)
    (fun () -> ints_of_array (seq_ranks prm ~nprocs))

let seq_time_us { n_keys; n_buckets; reps; key_cost; bucket_cost } =
  float_of_int reps
  *. ((2.0 *. float_of_int n_keys *. key_cost)
     +. (2.0 *. float_of_int n_buckets *. bucket_cost))

(* Rank the keys [lo, hi) of one processor, whose count of key [v] is
   [priv.(v)]: a reverse scan hands each key the number of its equal
   keys that come earlier, the same tie-breaking as {!seq_ranks}. Leaves
   [priv] zeroed. *)
let rank_keys ~priv ~rank_base ~ranks ~n_buckets ~lo ~hi =
  for i = hi - 1 downto lo do
    let v = key n_buckets i in
    priv.(v) <- priv.(v) - 1;
    ranks.(i) <- rank_base.(v) + priv.(v)
  done

(* {1 TreadMarks versions} *)

(* keep the paper's geometry: a bucket section is a whole number of
   pages (2^19 4-byte buckets over 8 sections were page multiples) *)
let run_page_size ~nprocs ~page_size { n_buckets; _ } =
  min page_size (n_buckets / nprocs * 8)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { n_keys; n_buckets; reps; key_cost; bucket_cost } = prm in
  (* Our buckets stand in for 16x the paper's (2^19 vs 2^15, 2^15 vs 2^11):
     scale the per-page cost of matching piggy-backed section requests
     against the local page list accordingly, so that the Section 3.3
     trade-off (merging data with synchronization loses when the page list
     is large) appears at the paper's magnitude. *)
  let cfg =
    {
      cfg with
      Dsm_sim.Config.wsync_scan_per_page_us =
        cfg.Dsm_sim.Config.wsync_scan_per_page_us *. 16.0;
      per_byte_us = cfg.Dsm_sim.Config.per_byte_us *. 16.0;
      page_size =
        run_page_size ~nprocs:cfg.Dsm_sim.Config.nprocs
          ~page_size:cfg.Dsm_sim.Config.page_size prm;
    }
  in
  let sys = Tmk.make ?plan cfg in
  let bucket = Tmk.Alloc.array sys "bucket" Tmk.I64 ~dims:[ n_buckets ] in
  let np = cfg.Dsm_sim.Config.nprocs in
  let sec s = block ~n:n_buckets ~np s in
  let sec_section s =
    let lo, hi = sec s in
    [ Shm.I64_1.section bucket (lo, hi - 1, 1) ]
  in
  let whole_section = [ Shm.I64_1.section bucket (0, n_buckets - 1, 1) ] in
  let ranks = Array.make n_keys 0 in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let priv = Array.make n_buckets 0 in
      let my_lo, my_hi = block ~n:n_keys ~np p in
      for _rep = 1 to reps do
        (* zero own section of the shared buckets *)
        (match level with
        | Cons_elim | Sync_merge -> Tmk.validate t (sec_section p) Tmk.Write_all
        | Base | Comm_aggr | Push_opt -> ());
        let lo, hi = sec p in
        Shm.fill_i64s t (Shm.I64_1.addr bucket lo) (hi - lo) 0;
        Tmk.charge t (bucket_cost *. float_of_int (hi - lo));
        (* private counting *)
        Array.fill priv 0 n_buckets 0;
        for i = my_lo to my_hi - 1 do
          let v = key n_buckets i in
          priv.(v) <- priv.(v) + 1
        done;
        Tmk.charge t (key_cost *. float_of_int (my_hi - my_lo));
        Tmk.barrier t;
        (* staggered lock-protected section updates (migratory data) *)
        for step = 0 to np - 1 do
          let s = (p + step) mod np in
          (match level with
          | Sync_merge ->
              Tmk.validate_w_sync t ~async (sec_section s) Tmk.Read_write_all
          | Base | Comm_aggr | Cons_elim | Push_opt -> ());
          Tmk.lock_acquire t s;
          (match level with
          | Comm_aggr -> Tmk.validate t ~async (sec_section s) Tmk.Read_write
          | Cons_elim ->
              Tmk.validate t ~async (sec_section s) Tmk.Read_write_all
          | Base | Sync_merge | Push_opt -> ());
          let lo, hi = sec s in
          Shm.add_i64s t (Shm.I64_1.addr bucket lo) priv lo (hi - lo);
          Tmk.charge t (bucket_cost *. float_of_int (hi - lo));
          Tmk.lock_release t s
        done;
        (* ranking phase: read all buckets *)
        (match level with
        | Sync_merge -> Tmk.validate_w_sync t ~async whole_section Tmk.Read
        | Base | Comm_aggr | Cons_elim | Push_opt -> ());
        Tmk.barrier t;
        (match level with
        | Comm_aggr | Cons_elim -> Tmk.validate t ~async whole_section Tmk.Read
        | Base | Sync_merge | Push_opt -> ());
        (* read the counts, then turn them into their exclusive prefix
           sums in place *)
        let rank_base = Array.make n_buckets 0 in
        Shm.read_i64s t (Shm.I64_1.addr bucket 0) rank_base 0 n_buckets;
        let acc = ref 0 in
        for v = 0 to n_buckets - 1 do
          let c = rank_base.(v) in
          rank_base.(v) <- !acc;
          acc := !acc + c
        done;
        Tmk.charge t (bucket_cost *. float_of_int n_buckets);
        rank_keys ~priv ~rank_base ~ranks ~n_buckets ~lo:my_lo ~hi:my_hi;
        Tmk.charge t (key_cost *. float_of_int (my_hi - my_lo));
        Tmk.barrier t
      done);
  let time_us = Tmk.elapsed sys in
  let stats = Tmk.total_stats sys in
  let rref = reference prm ~nprocs:np in
  let err = ref 0.0 in
  for i = 0 to n_keys - 1 do
    err := combine_err !err (float_of_int (ranks.(i) - rref.{i}))
  done;
  let homes = Tmk.homes sys in
  let classes = Tmk.adapt_classes sys in
  let digest = if digest then Tmk.digest sys else "" in
  inspect sys;
  make_result ~time_us ~stats ~max_err:!err ~digest
    ~homes ~classes ()

(* {1 Hand-coded message passing}

   As in the paper's PVMe version, the bucket sections are pipelined around
   a ring: each partial sum travels to the next processor, which adds its
   own counts; after np-1 hops the completed sections are broadcast for the
   ranking phase. *)

let pvm cfg ~size:({ n_keys; n_buckets; reps; key_cost; bucket_cost } as prm)
    ~behavior:() =
  (* same wire-cost scaling as the DSM versions (see tmk) *)
  let cfg =
    { cfg with Dsm_sim.Config.per_byte_us = cfg.Dsm_sim.Config.per_byte_us *. 16.0 }
  in
  let sys = Mp.make cfg in
  let np = cfg.Dsm_sim.Config.nprocs in
  let sec s = block ~n:n_buckets ~np s in
  let ranks = Array.make n_keys 0 in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let priv = Array.make n_buckets 0 in
      let my_lo, my_hi = block ~n:n_keys ~np p in
      for _rep = 1 to reps do
        Array.fill priv 0 n_buckets 0;
        for i = my_lo to my_hi - 1 do
          let v = key n_buckets i in
          priv.(v) <- priv.(v) + 1
        done;
        Mp.charge t (key_cost *. float_of_int (my_hi - my_lo));
        (* pipeline: section s starts at processor (s+1) mod np and ends at
           its final owner s after np-1 hops *)
        let full = Array.make n_buckets 0.0 in
        for step = 0 to np - 1 do
          let s = (p + step) mod np in
          let base, hi = sec s in
          let len = hi - base in
          let part =
            if step = 0 then begin
              let a = Array.make len 0.0 in
              for k = 0 to len - 1 do
                a.(k) <- float_of_int priv.(base + k)
              done;
              a
            end
            else begin
              let a = Mp.recv_floats t ~src:((p + 1) mod np) ~tag:(1000 + s) in
              for k = 0 to len - 1 do
                a.(k) <- a.(k) +. float_of_int priv.(base + k)
              done;
              a
            end
          in
          Mp.charge t (bucket_cost *. float_of_int len);
          if step < np - 1 then
            Mp.send_floats t ~dst:((p + np - 1) mod np) ~tag:(1000 + s) part
          else
            Array.blit part 0 full base len
        done;
        (* ring allgather of the completed sections for ranking; after np-1
           hops the completed section s sits at processor (s+1) mod np, so
           processor p starts the ring with section p-1 *)
        let cur = ref ((p + np - 1) mod np) in
        for _hop = 0 to np - 2 do
          let base, hi = sec !cur in
          Mp.send_floats t ~dst:((p + 1) mod np) ~tag:(2000 + !cur)
            (Array.sub full base (hi - base));
          let prev = (!cur + np - 1) mod np in
          let got = Mp.recv_floats t ~src:((p + np - 1) mod np) ~tag:(2000 + prev) in
          Array.blit got 0 full (fst (sec prev)) (Array.length got);
          cur := prev
        done;
        let rank_base = Array.make n_buckets 0 in
        let acc = ref 0 in
        for v = 0 to n_buckets - 1 do
          rank_base.(v) <- !acc;
          acc := !acc + int_of_float full.(v)
        done;
        Mp.charge t (bucket_cost *. float_of_int n_buckets);
        rank_keys ~priv ~rank_base ~ranks ~n_buckets ~lo:my_lo ~hi:my_hi;
        Mp.charge t (key_cost *. float_of_int (my_hi - my_lo))
      done);
  let rref = reference prm ~nprocs:np in
  let err = ref 0.0 in
  for i = 0 to n_keys - 1 do
    err := combine_err !err (float_of_int (ranks.(i) - rref.{i}))
  done;
  make_result ~time_us:(Mp.elapsed sys) ~stats:(Mp.total_stats sys)
    ~max_err:!err ()

let xhpf = None

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name
