(* Jacobi iteration (Section 2 of the paper, Figures 1 and 2): nearest-
   neighbour averaging over an m x m grid, interior columns block-partitioned
   across processors. The grid [b] is shared; the intermediate [a] is
   private scratch. Two barriers per iteration in the base version; the
   optimized versions follow the compiler output of Figure 2. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "Jacobi"

type params = { m : int; iters : int; update_cost : float; copy_cost : float }

(* Data sets stand in for the paper's at reduced memory resolution: the
   per-element costs are calibrated so that one iteration's uniprocessor
   compute time matches Table 1 (4096^2: 2.88 s/iter; 1024^2: 177 ms/iter),
   keeping the paper's computation-to-communication ratio per epoch. *)
let large = { m = 1024; iters = 10; update_cost = 2.13; copy_cost = 0.64 }
let small = { m = 512; iters = 10; update_cost = 0.52; copy_cost = 0.16 }
let size_name p = Printf.sprintf "%dx%d" p.m p.m

let init_cost = 0.03

let levels = [ Base; Comm_aggr; Cons_elim; Sync_merge; Push_opt ]

let init_value i j = float_of_int (((i * 31) + (j * 17)) mod 1000) /. 100.0

(* Block partition of the interior columns [1 .. m-2]. With more
   processors than interior columns the tail processors get an empty range
   (hi = lo - 1); [lo] is clamped so the range stays within the array and
   the last processor still owns the static boundary column. *)
let bounds m nprocs p =
  let count = m - 2 in
  let w = (count + nprocs - 1) / nprocs in
  let lo = min (m - 1) (1 + (p * w)) in
  let hi = min (m - 2) (lo + w - 1) in
  (lo, hi)

(* {1 Sequential reference} *)

let seq_arrays { m; iters; _ } =
  let b = Array.init (m * m) (fun k -> init_value (k mod m) (k / m)) in
  let a = Array.make (m * m) 0.0 in
  for _k = 1 to iters do
    for j = 1 to m - 2 do
      for i = 1 to m - 2 do
        a.((j * m) + i) <-
          0.25
          *. (b.((j * m) + i - 1)
             +. b.((j * m) + i + 1)
             +. b.(((j - 1) * m) + i)
             +. b.(((j + 1) * m) + i))
      done
    done;
    for j = 1 to m - 2 do
      for i = 0 to m - 1 do
        b.((j * m) + i) <- a.((j * m) + i)
      done
    done
  done;
  b

let seq_memo : (int * int, floats) Hashtbl.t = Hashtbl.create 4

let reference p =
  memo seq_memo (p.m, p.iters) (fun () -> floats_of_array (seq_arrays p))

let seq_time_us { m; iters; update_cost; copy_cost } =
  let interior = float_of_int ((m - 2) * (m - 2)) in
  let copied = float_of_int ((m - 2) * m) in
  (float_of_int (m * m) *. init_cost)
  +. (float_of_int iters *. ((interior *. update_cost) +. (copied *. copy_cost)))

(* {1 TreadMarks versions} *)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { m; iters; update_cost; copy_cost } = prm in
  let sys = Tmk.make ?plan cfg in
  let b = Tmk.Alloc.array sys "b" Tmk.F64 ~dims:[ m; m ] in
  let np = cfg.Dsm_sim.Config.nprocs in
  let read_sections =
    Array.init np (fun q ->
        let lo, hi = bounds m np q in
        [ Shm.F64_2.section b (0, m - 1, 1) (lo - 1, hi + 1, 1) ])
  and write_sections =
    Array.init np (fun q ->
        let lo, hi = bounds m np q in
        [ Shm.F64_2.section b (0, m - 1, 1) (lo, hi, 1) ])
  in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let lo, hi = bounds m np p in
      let width = hi - lo + 1 in
      let a = Array.make (m * width) 0.0 in
      (* a rotating window of three column buffers for the spans: left
         neighbour, own, right neighbour *)
      let cl = ref (Array.make m 0.0)
      and cc = ref (Array.make m 0.0)
      and cr = ref (Array.make m 0.0) in
      (* initialize own columns; the edge processors also own the static
         boundary columns *)
      let ilo = if p = 0 then 0 else lo
      and ihi = if p = np - 1 then m - 1 else hi in
      (match level with
      | Cons_elim | Sync_merge | Push_opt ->
          Tmk.validate t
            [ Shm.F64_2.section b (0, m - 1, 1) (ilo, ihi, 1) ]
            Tmk.Write_all
      | Base | Comm_aggr -> ());
      for j = ilo to ihi do
        let cc = !cc in
        for i = 0 to m - 1 do
          cc.(i) <- init_value i j
        done;
        Shm.F64_2.write_col t b j ~lo:0 ~len:m cc;
        Tmk.charge t (init_cost *. float_of_int m)
      done;
      Tmk.barrier t;
      for _k = 1 to iters do
        (* compiler-inserted calls for the region after Barrier(2): the
           boundary-read validate (dropped at Push level, where the data
           has been pushed) *)
        (match level with
        | Comm_aggr | Cons_elim ->
            Tmk.validate t ~async read_sections.(p) Tmk.Read
        | Base | Sync_merge | Push_opt -> ());
        (* phase 1: a <- average of b. Operands evaluate right to left, so
           the element loop first touches column j+1, then j-1, then j,
           and the spans enter pages in that order: rows 1..m-2 of j+1 and
           j-1, then rows 0..m-1 of j. Nothing writes b in this phase, so
           a column read once stays valid in the window: from the second
           column on, j-1 and rows 1..m-2 of j are already there, and only
           j+1 and the two end rows of j are read. *)
        for j = lo to hi do
          if j = lo then begin
            Shm.F64_2.read_col t b (j + 1) ~lo:1 ~len:(m - 2) !cr;
            Shm.F64_2.read_col t b (j - 1) ~lo:1 ~len:(m - 2) !cl;
            Shm.F64_2.read_col t b j ~lo:0 ~len:m !cc
          end
          else begin
            let spare = !cl in
            cl := !cc;
            cc := !cr;
            cr := spare;
            Shm.F64_2.read_col t b (j + 1) ~lo:1 ~len:(m - 2) spare;
            Shm.F64_2.read_col t b j ~lo:0 ~len:1 !cc;
            Shm.F64_2.read_col t b j ~lo:(m - 1) ~len:1 !cc
          end;
          let cl = !cl
          and cc = !cc
          and cr = !cr in
          for i = 1 to m - 2 do
            a.(((j - lo) * m) + i) <-
              0.25 *. (cc.(i - 1) +. cc.(i + 1) +. cl.(i) +. cr.(i))
          done;
          Tmk.charge t (update_cost *. float_of_int (m - 2))
        done;
        Tmk.barrier t;
        (* region after Barrier(1): b is written first over the whole own
           section *)
        (match level with
        | Comm_aggr -> Tmk.validate t ~async write_sections.(p) Tmk.Write
        | Cons_elim | Sync_merge | Push_opt ->
            Tmk.validate t write_sections.(p) Tmk.Write_all
        | Base -> ());
        (* phase 2: b <- a *)
        for j = lo to hi do
          Shm.write_f64s t (Shm.F64_2.addr b 0 j) a ((j - lo) * m) m;
          Tmk.charge t (copy_cost *. float_of_int m)
        done;
        match level with
        | Push_opt -> Tmk.push t ~read_sections ~write_sections
        | Base | Comm_aggr | Cons_elim -> Tmk.barrier t
        | Sync_merge ->
            Tmk.validate_w_sync t ~async read_sections.(p) Tmk.Read;
            Tmk.barrier t
      done);
  let time_us = Tmk.elapsed sys in
  let stats = Tmk.total_stats sys in
  (* verification (perturbs neither the time nor the recorded stats) *)
  let bref = reference prm in
  let err = ref 0.0 in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        let col = Array.make m 0.0 in
        for j = 0 to m - 1 do
          Shm.F64_2.read_col t b j ~lo:0 ~len:m col;
          for i = 0 to m - 1 do
            err := combine_err !err (col.(i) -. bref.{(j * m) + i})
          done
        done
      end);
  let homes = Tmk.homes sys in
  let classes = Tmk.adapt_classes sys in
  let digest = if digest then Tmk.digest sys else "" in
  inspect sys;
  make_result ~time_us ~stats ~max_err:!err ~digest ~homes ~classes ()

(* {1 Message-passing versions}

   Local arrays with halo columns; one send to each neighbour per
   iteration (the paper's 2(n-1) messages). *)

let mp_body ~exchange ~charge t { m; iters; update_cost; copy_cost } =
  let p = Mp.pid t
  and np = Mp.nprocs t in
  let lo, hi = bounds m np p in
  let width = hi - lo + 1 in
  (* local columns lo-1 .. hi+1 *)
  let col j = Array.init m (fun i -> init_value i j) in
  let b = Array.init (width + 2) (fun k -> col (lo - 1 + k)) in
  let a = Array.make_matrix width m 0.0 in
  charge t (init_cost *. float_of_int (m * width));
  for _k = 1 to iters do
    for j = 0 to width - 1 do
      let bj = b.(j + 1) in
      let bl = b.(j)
      and br = b.(j + 2) in
      for i = 1 to m - 2 do
        a.(j).(i) <- 0.25 *. (bj.(i - 1) +. bj.(i + 1) +. bl.(i) +. br.(i))
      done;
      charge t (update_cost *. float_of_int (m - 2))
    done;
    for j = 0 to width - 1 do
      let bj = b.(j + 1) in
      for i = 0 to m - 1 do
        bj.(i) <- a.(j).(i)
      done;
      charge t (copy_cost *. float_of_int m)
    done;
    let from_left, from_right = exchange t ~left:b.(1) ~right:b.(width) in
    (match from_left with Some c -> b.(0) <- c | None -> ());
    match from_right with Some c -> b.(width + 1) <- c | None -> ()
  done;
  (b, lo, hi)

(* Verification is done outside the timed run, directly against the
   per-processor partitions, so it does not perturb times or statistics. *)
let mp_err prm results =
  let bref = reference prm in
  let m = prm.m in
  let err = ref 0.0 in
  Array.iter
    (fun (b, lo, hi) ->
      for j = lo to hi do
        for i = 0 to m - 1 do
          err := combine_err !err (b.(j - lo + 1).(i) -. bref.{(j * m) + i})
        done
      done)
    results;
  !err

(* Every processor must own an interior column: its halo exchange sends
   its edge columns. The blocks fill from processor 0, so the last
   processor is the first left without one. *)
let run_mp ~version ~exchange cfg prm =
  let np = cfg.Dsm_sim.Config.nprocs in
  let lo, hi = bounds prm.m np (np - 1) in
  if hi < lo then
    invalid_arg
      (Printf.sprintf
         "jacobi %s on %d processors leaves processor %d without any of \
          the %d interior columns"
         version np (np - 1) (prm.m - 2));
  let sys = Mp.make cfg in
  let results = Array.make np ([| [| 0.0 |] |], 0, -1) in
  Mp.run sys (fun t ->
      results.(Mp.pid t) <- mp_body ~exchange ~charge:Mp.charge t prm);
  make_result ~time_us:(Mp.elapsed sys) ~stats:(Mp.total_stats sys)
    ~max_err:(mp_err prm results) ()

let pvm cfg ~size:prm ~behavior:() =
  let exchange t ~left ~right =
    let p = Mp.pid t
    and np = Mp.nprocs t in
    if p > 0 then Mp.send_floats t ~dst:(p - 1) ~tag:1 left;
    if p < np - 1 then Mp.send_floats t ~dst:(p + 1) ~tag:1 right;
    let fl = if p > 0 then Some (Mp.recv_floats t ~src:(p - 1) ~tag:1) else None in
    let fr =
      if p < np - 1 then Some (Mp.recv_floats t ~src:(p + 1) ~tag:1) else None
    in
    (fl, fr)
  in
  run_mp ~version:"pvm" ~exchange cfg prm

let xhpf =
  Some
    (fun cfg ~size:prm ~behavior:() ->
      let exchange t ~left ~right = Hpf.shift_exchange t ~tag:1 ~left ~right in
      run_mp ~version:"xhpf" ~exchange cfg prm)

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name
