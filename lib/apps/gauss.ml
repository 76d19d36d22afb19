(* Gaussian elimination with partial pivoting, columns distributed
   cyclically for load balance (Section 5 of the paper). At iteration k the
   owner of column k selects the pivot row and computes the multiplier
   column; the pivot row number and the multipliers are "logically
   broadcast" through a shared work array that every other processor reads
   after the barrier — the pattern that makes merging data movement with
   synchronization (barrier-time broadcast) the most effective optimization
   for this program. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "Gauss"

type params = { m : int; update_cost : float }

(* Per-iteration uniprocessor compute calibrated to Table 1 (2048^2:
   1.63 s per elimination step; 1024^2: 0.27 s). *)
let large = { m = 512; update_cost = 18.7 }
let small = { m = 256; update_cost = 12.2 }

(* Columns are contiguous and cyclically distributed; as in the paper's
   2048x2048 runs, a column is an exact multiple of the page size (the page
   size is scaled with the data set, keeping the paper's layout geometry and
   avoiding false sharing the original did not have). *)
let page_size { m; _ } = if m >= 512 then 4096 else 2048
let size_name p = Printf.sprintf "%dx%d" p.m p.m

(* 8-byte elements from byte address [ad] to the end of its page *)
let room ps ad = (ps - (ad mod ps)) / 8

(* serial-section costs derive from the update cost *)
let pivot_scan_cost u = u /. 4.0
let mult_cost u = u /. 2.0
let swap_cost u = u /. 5.0

let levels = [ Base; Comm_aggr; Cons_elim; Sync_merge ]

let init_value i j =
  let v = float_of_int ((((i * 131) + (j * 37)) mod 2003) - 1001) /. 173.0 in
  if i = j then v +. 8.0 else v

(* {1 Sequential reference}

   The parallel versions perform exactly the same per-element operations in
   the same order, so results match bit-for-bit. *)

let seq_arrays { m; _ } =
  let a = Array.init m (fun j -> Array.init m (fun i -> init_value i j)) in
  (* a.(j).(i): column-major like the shared array *)
  for k = 0 to m - 2 do
    let colk = a.(k) in
    let piv = ref k in
    for i = k + 1 to m - 1 do
      if abs_float colk.(i) > abs_float colk.(!piv) then piv := i
    done;
    let piv = !piv in
    if piv <> k then begin
      let tmp = colk.(k) in
      colk.(k) <- colk.(piv);
      colk.(piv) <- tmp
    end;
    let l = Array.make m 0.0 in
    for i = k + 1 to m - 1 do
      l.(i) <- colk.(i) /. colk.(k);
      colk.(i) <- l.(i)
    done;
    for j = k + 1 to m - 1 do
      let colj = a.(j) in
      if piv <> k then begin
        let tmp = colj.(k) in
        colj.(k) <- colj.(piv);
        colj.(piv) <- tmp
      end;
      for i = k + 1 to m - 1 do
        colj.(i) <- colj.(i) -. (l.(i) *. colj.(k))
      done
    done
  done;
  a

let seq_memo : (int, floats) Hashtbl.t = Hashtbl.create 4

let reference p =
  memo seq_memo p.m (fun () -> floats_of_columns (seq_arrays p))

let seq_time_us { m; update_cost = u } =
  let t = ref 0.0 in
  for k = 0 to m - 2 do
    let rem = float_of_int (m - 1 - k) in
    t :=
      !t
      +. (rem *. pivot_scan_cost u)
      +. (rem *. mult_cost u)
      +. (rem *. ((rem *. u) +. swap_cost u))
  done;
  !t

(* {1 TreadMarks versions} *)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { m; update_cost = u } = prm in
  let ps = page_size prm in
  let cfg = { cfg with Dsm_sim.Config.page_size = ps } in
  let sys = Tmk.make ?plan cfg in
  let a = Tmk.Alloc.array sys "a" ~dims:[ m; m ] in
  (* work(k+1) = pivot row (as float); work(k+1+d) = multiplier l(k+d) *)
  let work = Tmk.Alloc.array sys "work" ~dims:[ (m + 1) ] in
  let np = cfg.Dsm_sim.Config.nprocs in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      (* private multiplier buffer, reused by every step: step [k] writes
         l(k+1..m-1) before reading them; it also stages the initial
         columns *)
      let l = Array.make m 0.0 in
      (* initialize own (cyclic) columns *)
      for j = 0 to m - 1 do
        if j mod np = p then begin
          for i = 0 to m - 1 do
            l.(i) <- init_value i j
          done;
          Shm.F64_2.write_col t a j ~lo:0 ~len:m l;
          Tmk.charge t (0.03 *. float_of_int m)
        end
      done;
      Tmk.barrier t;
      for k = 0 to m - 2 do
        let owner = k mod np in
        let work_section = [ Shm.F64_1.section work (k + 1, m, 1) ] in
        if p = owner then begin
          (* the owner writes the whole broadcast section first *)
          (match level with
          | Cons_elim | Sync_merge ->
              Tmk.validate t work_section Tmk.Write_all
          | Comm_aggr -> Tmk.validate t work_section Tmk.Write
          | Base | Push_opt -> ());
          (* The step runs on rows k..m-1 of column k staged in [l]. The
             element loop's pivot scan reads those rows in ascending
             order; the swap then writes a(k,k) and a(piv,k), if the
             pivot row moved, before work(k+1); the multiplier loop
             writes a(i,k) then work(i+1) for each row i. The spans enter
             the pages in that order. *)
          Shm.F64_2.read_col t a k ~lo:k ~len:(m - k) l;
          let piv = ref k in
          for i = k + 1 to m - 1 do
            if abs_float l.(i) > abs_float l.(!piv) then piv := i
          done;
          Tmk.charge t (pivot_scan_cost u *. float_of_int (m - 1 - k));
          let piv = !piv in
          if piv <> k then begin
            let tmp = l.(k) in
            l.(k) <- l.(piv);
            l.(piv) <- tmp;
            Shm.F64_2.set t a k k l.(k);
            Shm.F64_2.set t a piv k tmp
          end;
          Shm.F64_1.set t work (k + 1) (float_of_int piv);
          let akk = l.(k) in
          for i = k + 1 to m - 1 do
            l.(i) <- l.(i) /. akk
          done;
          (* chunks within which neither stream crosses a page, so each
             chunk's two spans check one page each, column first *)
          let i = ref (k + 1) in
          while !i < m do
            let n =
              min (m - !i)
                (min
                   (room ps (Shm.F64_2.addr a !i k))
                   (room ps (Shm.F64_1.addr work (!i + 1))))
            in
            Shm.F64_2.write_col t a k ~lo:!i ~len:n l;
            Shm.write_f64s t (Shm.F64_1.addr work (!i + 1)) l !i n;
            i := !i + n
          done;
          Tmk.charge t (mult_cost u *. float_of_int (m - 1 - k))
        end
        else begin
          (* readers announce the section they will read after the barrier *)
          match level with
          | Sync_merge -> Tmk.validate_w_sync t ~async work_section Tmk.Read
          | Base | Comm_aggr | Cons_elim | Push_opt -> ()
        end;
        Tmk.barrier t;
        if p <> owner then begin
          match level with
          | Comm_aggr | Cons_elim ->
              Tmk.validate t ~async work_section Tmk.Read
          | Base | Sync_merge | Push_opt -> ()
        end;
        (* own (cyclic) columns j > k are read-modify-written: validating
           them in bulk bypasses the per-page write faults; the strided
           sections cost per-column run-time work, the overhead the paper
           attributes to the cyclic access pattern *)
        (match level with
        | Comm_aggr | Cons_elim | Sync_merge ->
            let own_cols = ref [] in
            for j = k + 1 to m - 1 do
              if j mod np = p then
                own_cols :=
                  Shm.F64_2.section a (0, m - 1, 1) (j, j, 1) :: !own_cols
            done;
            if !own_cols <> [] then Tmk.validate t !own_cols Tmk.Read_write
        | Base | Push_opt -> ());
        let piv = int_of_float (Shm.F64_1.get t work (k + 1)) in
        (* copy the multipliers l(k+1..m-1) = work(k+2..m) to the private
           buffer; the shared reads fault once, further uses are local *)
        Shm.read_f64s t (Shm.F64_1.addr work (k + 2)) l (k + 1) (m - 1 - k);
        (* update own columns j > k *)
        for j = k + 1 to m - 1 do
          if j mod np = p then begin
            if piv <> k then begin
              let tmp = Shm.F64_2.get t a k j in
              Shm.F64_2.set t a k j (Shm.F64_2.get t a piv j);
              Shm.F64_2.set t a piv j tmp
            end;
            Tmk.charge t (swap_cost u);
            let akj = Shm.F64_2.get t a k j in
            Shm.F64_2.axpy_col t a j ~lo:(k + 1) ~len:(m - 1 - k) l akj;
            Tmk.charge t (u *. float_of_int (m - 1 - k))
          end
        done;
        Tmk.barrier t
      done);
  finish_tmk sys ~digest ~inspect (fun () ->
      let aref = reference prm in
      let err = ref 0.0 in
      Tmk.run sys (fun t ->
          if Tmk.pid t = 0 then begin
            let col = Array.make m 0.0 in
            for j = 0 to m - 1 do
              Shm.F64_2.read_col t a j ~lo:0 ~len:m col;
              for i = 0 to m - 1 do
                err := combine_err !err (col.(i) -. aref.{(j * m) + i})
              done
            done
          end);
      !err)

(* {1 Message-passing versions} *)

let run_mp ~bcast cfg ({ m; update_cost = u } as prm) =
  let sys = Mp.make cfg in
  let results = Array.make cfg.Dsm_sim.Config.nprocs [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t
      and np = Mp.nprocs t in
      let ncols = (m - p + np - 1) / np in
      let cols = Array.init ncols (fun c -> Array.init m (fun i -> init_value i ((c * np) + p))) in
      Mp.charge t (0.03 *. float_of_int (m * ncols));
      (* local column index of global column j (owned iff j mod np = p) *)
      let local j = j / np in
      for k = 0 to m - 2 do
        let owner = k mod np in
        let msg =
          if p = owner then begin
            let colk = cols.(local k) in
            let piv = ref k in
            for i = k + 1 to m - 1 do
              if abs_float colk.(i) > abs_float colk.(!piv) then piv := i
            done;
            Mp.charge t (pivot_scan_cost u *. float_of_int (m - 1 - k));
            let piv = !piv in
            if piv <> k then begin
              let tmp = colk.(k) in
              colk.(k) <- colk.(piv);
              colk.(piv) <- tmp
            end;
            let buf = Array.make (m - k) 0.0 in
            buf.(0) <- float_of_int piv;
            for i = k + 1 to m - 1 do
              let l = colk.(i) /. colk.(k) in
              colk.(i) <- l;
              buf.(i - k) <- l
            done;
            Mp.charge t (mult_cost u *. float_of_int (m - 1 - k));
            buf
          end
          else [||]
        in
        let buf = bcast t ~root:owner ~tag:k msg in
        let piv = int_of_float buf.(0) in
        for j = k + 1 to m - 1 do
          if j mod np = p then begin
            let colj = cols.(local j) in
            if piv <> k then begin
              let tmp = colj.(k) in
              colj.(k) <- colj.(piv);
              colj.(piv) <- tmp
            end;
            Mp.charge t (swap_cost u);
            let akj = colj.(k) in
            for i = k + 1 to m - 1 do
              colj.(i) <- colj.(i) -. (buf.(i - k) *. akj)
            done;
            Mp.charge t (u *. float_of_int (m - 1 - k))
          end
        done
      done;
      results.(p) <- cols);
  let aref = reference prm in
  let err = ref 0.0 in
  Array.iteri
    (fun p cols ->
      Array.iteri
        (fun c col ->
          let j = (c * cfg.Dsm_sim.Config.nprocs) + p in
          for i = 0 to m - 1 do
            err := combine_err !err (col.(i) -. aref.{(j * m) + i})
          done)
        cols)
    results;
  finish_mp sys ~max_err:!err

let pvm cfg ~size:prm ~behavior:() =
  run_mp ~bcast:(fun t ~root ~tag msg -> Mp.bcast_floats t ~root ~tag msg) cfg prm

let xhpf =
  Some
    (fun cfg ~size:prm ~behavior:() ->
      run_mp
        ~bcast:(fun t ~root ~tag msg -> Hpf.bcast_section t ~root ~tag msg)
        cfg prm)

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name
