(* Modified Gram-Schmidt: computes an orthonormal basis for a set of
   m-dimensional vectors (stored as columns), distributed cyclically. At
   iteration i the owner normalizes vector i; after a barrier every
   processor makes its own vectors j > i orthogonal to vector i. Vector i
   is logically broadcast — like Gauss, barrier-time broadcast (sync+data
   merge) is the profitable optimization; the cyclic distribution's strided
   ownership adds run-time overhead for the compiler-optimized and XHPF
   versions relative to PVMe, as the paper observes. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "MGS"

type params = { m : int; n : int; dot_cost : float }

(* Per-iteration uniprocessor compute calibrated to Table 1 (2048^2:
   219 ms/iter; 1024^2: 55 ms/iter => ~6.7 us per element of a dot+axpy). *)
let large = { m = 256; n = 256; dot_cost = 6.7 }
let small = { m = 128; n = 128; dot_cost = 6.7 }

(* Keep the paper's geometry: a vector (column) is an exact multiple of the
   page size (see Gauss). *)
let page_size { m; _ } = if m >= 256 then 2048 else 1024
let size_name p = Printf.sprintf "%dx%d" p.m p.n

let norm_cost d = d *. 0.8

let levels = [ Base; Comm_aggr; Cons_elim; Sync_merge ]

let init_value i j =
  (float_of_int ((((i * 17) + (j * 257) + (i * j)) mod 1003) - 501) /. 197.0)
  +. if i = j then 4.0 else 0.0

(* {1 Sequential reference} *)

let seq_arrays { m; n; _ } =
  let q = Array.init n (fun j -> Array.init m (fun i -> init_value i j)) in
  for i = 0 to n - 1 do
    let qi = q.(i) in
    let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 qi) in
    for r = 0 to m - 1 do
      qi.(r) <- qi.(r) /. norm
    done;
    for j = i + 1 to n - 1 do
      let qj = q.(j) in
      let d = ref 0.0 in
      for r = 0 to m - 1 do
        d := !d +. (qi.(r) *. qj.(r))
      done;
      for r = 0 to m - 1 do
        qj.(r) <- qj.(r) -. (!d *. qi.(r))
      done
    done
  done;
  q

let seq_memo : (int * int, floats) Hashtbl.t = Hashtbl.create 4

let reference p =
  memo seq_memo (p.m, p.n) (fun () -> floats_of_columns (seq_arrays p))

let seq_time_us { m; n; dot_cost } =
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    t := !t +. (norm_cost dot_cost *. float_of_int m);
    t := !t +. (dot_cost *. float_of_int (m * (n - 1 - i)))
  done;
  !t

(* {1 TreadMarks versions} *)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { m; n; dot_cost } = prm in
  let cfg = { cfg with Dsm_sim.Config.page_size = page_size prm } in
  let sys = Tmk.make ?plan cfg in
  let q = Tmk.Alloc.array sys "q" ~dims:[ m; n ] in
  let np = cfg.Dsm_sim.Config.nprocs in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      (* private copy of the vector being broadcast (it also stages the
         initial and the normalized columns) *)
      let vi = Array.make m 0.0 in
      let j = ref p in
      while !j < n do
        let j' = !j in
        for i = 0 to m - 1 do
          vi.(i) <- init_value i j'
        done;
        Shm.F64_2.write_col t q j' ~lo:0 ~len:m vi;
        Tmk.charge t (0.03 *. float_of_int m);
        j := j' + np
      done;
      Tmk.barrier t;
      for i = 0 to n - 1 do
        let owner = i mod np in
        let vec_section = [ Shm.F64_2.section q (0, m - 1, 1) (i, i, 1) ] in
        if p = owner then begin
          (* normalize: the whole vector is read, then overwritten *)
          (match level with
          | Cons_elim | Sync_merge ->
              Tmk.validate t vec_section Tmk.Read_write_all
          | Comm_aggr -> Tmk.validate t vec_section Tmk.Read_write
          | Base | Push_opt -> ());
          Shm.F64_2.read_col t q i ~lo:0 ~len:m vi;
          let s = ref 0.0 in
          for r = 0 to m - 1 do
            let x = vi.(r) in
            s := !s +. (x *. x)
          done;
          let norm = sqrt !s in
          for r = 0 to m - 1 do
            vi.(r) <- vi.(r) /. norm
          done;
          Shm.F64_2.write_col t q i ~lo:0 ~len:m vi;
          Tmk.charge t (norm_cost dot_cost *. float_of_int m)
        end
        else begin
          match level with
          | Sync_merge -> Tmk.validate_w_sync t ~async vec_section Tmk.Read
          | Base | Comm_aggr | Cons_elim | Push_opt -> ()
        end;
        Tmk.barrier t;
        if p <> owner then begin
          match level with
          | Comm_aggr | Cons_elim -> Tmk.validate t ~async vec_section Tmk.Read
          | Base | Sync_merge | Push_opt -> ()
        end;
        (match level with
        | Comm_aggr | Cons_elim | Sync_merge ->
            let own_cols = ref [] in
            let j = ref (first_owned ~np ~p (i + 1)) in
            while !j < n do
              own_cols :=
                Shm.F64_2.section q (0, m - 1, 1) (!j, !j, 1) :: !own_cols;
              j := !j + np
            done;
            if !own_cols <> [] then Tmk.validate t !own_cols Tmk.Read_write
        | Base | Push_opt -> ());
        (* copy vector i to a private buffer: the shared reads fault once,
           the repeated uses below are local *)
        Shm.F64_2.read_col t q i ~lo:0 ~len:m vi;
        let j = ref (first_owned ~np ~p (i + 1)) in
        while !j < n do
          let dv = Shm.F64_2.dot_col t q !j ~lo:0 ~len:m vi in
          (* x -. vi(r) *. dv: the same float as dv *. vi(r) *)
          Shm.F64_2.axpy_col t q !j ~lo:0 ~len:m vi dv;
          Tmk.charge t (dot_cost *. float_of_int m);
          j := !j + np
        done;
        Tmk.barrier t
      done);
  finish_tmk sys ~digest ~inspect (fun () ->
      let qref = reference prm in
      let err = ref 0.0 in
      Tmk.run sys (fun t ->
          if Tmk.pid t = 0 then begin
            let col = Array.make m 0.0 in
            for j = 0 to n - 1 do
              Shm.F64_2.read_col t q j ~lo:0 ~len:m col;
              for i = 0 to m - 1 do
                err := combine_err !err (col.(i) -. qref.{(j * m) + i})
              done
            done
          end);
      !err)

(* {1 Message-passing versions} *)

let run_mp ~bcast cfg ({ m; n; dot_cost } as prm) =
  let sys = Mp.make cfg in
  let results = Array.make cfg.Dsm_sim.Config.nprocs [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t
      and np = Mp.nprocs t in
      let ncols = (n - p + np - 1) / np in
      let cols =
        Array.init ncols (fun c -> Array.init m (fun i -> init_value i ((c * np) + p)))
      in
      Mp.charge t (0.03 *. float_of_int (m * ncols));
      for i = 0 to n - 1 do
        let owner = i mod np in
        let vi =
          if p = owner then begin
            let qi = cols.(i / np) in
            let s = ref 0.0 in
            for r = 0 to m - 1 do
              s := !s +. (qi.(r) *. qi.(r))
            done;
            let norm = sqrt !s in
            for r = 0 to m - 1 do
              qi.(r) <- qi.(r) /. norm
            done;
            Mp.charge t (norm_cost dot_cost *. float_of_int m);
            qi
          end
          else [||]
        in
        let vi = bcast t ~root:owner ~tag:i vi in
        let j = ref (first_owned ~np ~p (i + 1)) in
        while !j < n do
          let qj = cols.(!j / np) in
          let d = ref 0.0 in
          for r = 0 to m - 1 do
            d := !d +. (vi.(r) *. qj.(r))
          done;
          for r = 0 to m - 1 do
            qj.(r) <- qj.(r) -. (!d *. vi.(r))
          done;
          Mp.charge t (dot_cost *. float_of_int m);
          j := !j + np
        done
      done;
      results.(p) <- cols);
  let qref = reference prm in
  let err = ref 0.0 in
  Array.iteri
    (fun p cols ->
      Array.iteri
        (fun c col ->
          let j = (c * cfg.Dsm_sim.Config.nprocs) + p in
          for i = 0 to m - 1 do
            err := combine_err !err (col.(i) -. qref.{(j * m) + i})
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
