(* The NCAR shallow-water benchmark: finite-difference weather model on a
   two-dimensional periodic grid. Three compute phases per time step
   (velocity fluxes/potential vorticity; new time level; time smoothing),
   separated by barriers; columns are block-partitioned and sharing happens
   only across partition edges. As in the paper, only communication
   aggregation and consistency elimination apply (merging with
   synchronization and Push would need interprocedural analysis); the
   consistency-elimination gains are relatively larger than Jacobi's
   because many more pages are in use (13 shared arrays). Periodic
   continuation is expressed with wrap-around indexing rather than the
   original's copy loops (a documented simplification with the same
   cross-processor communication pattern). *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "Shallow"

type params = { m : int; n : int; steps : int; point_cost : float }

(* 256x256 and 256x128 stand in for the paper's 1024x1024 and 1024x512;
   per-step uniprocessor compute calibrated to Table 1. *)
let large = { m = 256; n = 256; steps = 8; point_cost = 7.6 }
let small = { m = 256; n = 128; steps = 8; point_cost = 7.6 }
let size_name p = Printf.sprintf "%dx%d" p.m p.n
let levels = [ Base; Comm_aggr; Cons_elim ]

(* physical constants of the benchmark *)
let dt = 90.0
let dx = 100000.0
let dy = 100000.0
let a_const = 1000000.0
let alpha = 0.001
let el = 102400000.0  (* n * dx for the original; any constant works *)
let pi = 4.0 *. atan 1.0
let tpi = pi +. pi
let pcf = (pi *. pi *. a_const *. a_const) /. (el *. el)

let fsdx = 4.0 /. dx
let fsdy = 4.0 /. dy

let psi_init m n i j =
  a_const
  *. sin ((float_of_int i +. 0.5) *. tpi /. float_of_int m)
  *. sin ((float_of_int j +. 0.5) *. tpi /. float_of_int n)

let u_init m n i j =
  -.(psi_init m n i ((j + 1) mod n) -. psi_init m n i j) /. dy

let v_init m n i j =
  (psi_init m n ((i + 1) mod m) j -. psi_init m n i j) /. dx

let p_init m n i j =
  pcf
  *. (cos (2.0 *. float_of_int i *. tpi /. float_of_int m)
     +. cos (2.0 *. float_of_int j *. tpi /. float_of_int n))
  +. 50000.0

(* {1 The model, a column at a time}

   The same phase functions drive the sequential arrays, the DSM and the
   message-passing versions, guaranteeing identical floats. They work on
   whole columns: [load] yields a column's current contents, [out] a
   buffer to compute a column into, and [store] publishes a computed
   column. Over local storage [load] and [out] return the stored column
   itself and [store] copies only a column that is not already in place;
   the DSM version moves columns with spans. Each column step loads and
   stores its columns in the order the original element loop first
   touched them at row 0 (operands evaluate right to left): a column of
   the paper's sizes lies within one page, so every page is first
   touched at row 0 and the spans fault exactly where that loop did. *)

type grid = {
  load : int -> int -> float array;  (* array-id, column *)
  out : int -> int -> float array;
  store : int -> int -> float array -> unit;
}

(* array ids *)
let iu = 0
and iv = 1
and ip = 2
and iunew = 3
and ivnew = 4
and ipnew = 5
and iuold = 6
and ivold = 7
and ipold = 8
and icu = 9
and icv = 10
and iz = 11
and ih = 12

let n_arrays = 13

let phase1 g m n jlo jhi =
  for j = jlo to jhi do
    let jm = (j + n - 1) mod n
    and jp = (j + 1) mod n in
    let u = g.load iu j in
    let p = g.load ip j in
    let cu = g.out icu j in
    for i = 0 to m - 1 do
      cu.(i) <- 0.5 *. (p.(i) +. p.((i + m - 1) mod m)) *. u.(i)
    done;
    g.store icu j cu;
    let v = g.load iv j in
    let pm = g.load ip jm in
    let cv = g.out icv j in
    for i = 0 to m - 1 do
      cv.(i) <- 0.5 *. (p.(i) +. pm.(i)) *. v.(i)
    done;
    g.store icv j cv;
    let pp = g.load ip jp in
    let up = g.load iu jp in
    let z = g.out iz j in
    for i = 0 to m - 1 do
      let ipp = (i + 1) mod m in
      z.(i) <-
        ((fsdx *. (v.(ipp) -. v.(i))) -. (fsdy *. (up.(i) -. u.(i))))
        /. (p.(i) +. p.(ipp) +. pp.(ipp) +. pp.(i))
    done;
    g.store iz j z;
    let vp = g.load iv jp in
    let h = g.out ih j in
    for i = 0 to m - 1 do
      let ipp = (i + 1) mod m in
      h.(i) <-
        p.(i)
        +. (0.25
           *. ((u.(i) *. u.(i))
              +. (u.(ipp) *. u.(ipp))
              +. (v.(i) *. v.(i))
              +. (vp.(i) *. vp.(i))))
    done;
    g.store ih j h
  done

let phase2 g m n ~tdt jlo jhi =
  let tdts8 = tdt /. 8.0
  and tdtsdx = tdt /. dx
  and tdtsdy = tdt /. dy in
  for j = jlo to jhi do
    let jm = (j + n - 1) mod n
    and jp = (j + 1) mod n in
    let h = g.load ih j in
    let cvp = g.load icv jp in
    let cv = g.load icv j in
    let zp = g.load iz jp in
    let z = g.load iz j in
    let uold = g.load iuold j in
    let unew = g.out iunew j in
    for i = 0 to m - 1 do
      let im = (i + m - 1) mod m in
      unew.(i) <-
        uold.(i)
        +. (tdts8
           *. (z.(i) +. zp.(i))
           *. (cv.(i) +. cv.(im) +. cvp.(im) +. cvp.(i)))
        -. (tdtsdx *. (h.(i) -. h.(im)))
    done;
    g.store iunew j unew;
    let hm = g.load ih jm in
    let cum = g.load icu jm in
    let cu = g.load icu j in
    let vold = g.load ivold j in
    let vnew = g.out ivnew j in
    for i = 0 to m - 1 do
      let ipp = (i + 1) mod m in
      vnew.(i) <-
        vold.(i)
        -. (tdts8
           *. (z.(i) +. z.(ipp))
           *. (cu.(i) +. cu.(ipp) +. cum.(ipp) +. cum.(i)))
        -. (tdtsdy *. (h.(i) -. hm.(i)))
    done;
    g.store ivnew j vnew;
    let pold = g.load ipold j in
    let pnew = g.out ipnew j in
    for i = 0 to m - 1 do
      pnew.(i) <-
        pold.(i)
        -. (tdtsdx *. (cu.((i + 1) mod m) -. cu.(i)))
        -. (tdtsdy *. (cvp.(i) -. cv.(i)))
    done;
    g.store ipnew j pnew
  done

(* time smoothing: [old <- cur + alpha (new - 2 cur + old)] (plain copies
   at the first step), then [cur <- new] *)
let phase3 g m ~first jlo jhi =
  for j = jlo to jhi do
    if first then
      List.iter
        (fun (cur, old) -> g.store old j (g.load cur j))
        [ (iu, iuold); (iv, ivold); (ip, ipold) ]
    else begin
      let u = g.load iu j in
      let v = g.load iv j in
      let p = g.load ip j in
      List.iter
        (fun (cur, nw, old) ->
          let o = g.load old j in
          let x = g.load nw j in
          for i = 0 to m - 1 do
            o.(i) <- cur.(i) +. (alpha *. (x.(i) -. (2.0 *. cur.(i)) +. o.(i)))
          done;
          g.store old j o)
        [ (u, iunew, iuold); (v, ivnew, ivold); (p, ipnew, ipold) ]
    end;
    List.iter
      (fun (nw, cur) -> g.store cur j (g.load nw j))
      [ (iunew, iu); (ivnew, iv); (ipnew, ip) ]
  done

let init g m n jlo jhi =
  for j = jlo to jhi do
    let fill a f =
      let c = g.out a j in
      for i = 0 to m - 1 do
        c.(i) <- f m n i j
      done;
      g.store a j c;
      c
    in
    let u = fill iu u_init in
    let v = fill iv v_init in
    let p = fill ip p_init in
    g.store iuold j u;
    g.store ivold j v;
    g.store ipold j p
  done

(* a grid over local column storage *)
let local_grid m col =
  {
    load = col;
    out = col;
    store =
      (fun a j c ->
        let d = col a j in
        if c != d then Array.blit c 0 d 0 m);
  }

(* {1 Sequential reference} *)

let seq_arrays { m; n; steps; _ } =
  let data = Array.init n_arrays (fun _ -> Array.make_matrix n m 0.0) in
  let g = local_grid m (fun a j -> data.(a).(j)) in
  init g m n 0 (n - 1);
  let tdt = ref dt in
  for step = 1 to steps do
    phase1 g m n 0 (n - 1);
    phase2 g m n ~tdt:!tdt 0 (n - 1);
    phase3 g m ~first:(step = 1) 0 (n - 1);
    if step = 1 then tdt := !tdt +. !tdt
  done;
  data

let seq_memo : (int * int * int, floats) Hashtbl.t = Hashtbl.create 4

(* array [a], column [j], row [i] at [(((a * n) + j) * m) + i] *)
let reference prm =
  memo seq_memo (prm.m, prm.n, prm.steps) (fun () ->
      floats_of_columns (Array.concat (Array.to_list (seq_arrays prm))))

let seq_time_us { m; n; steps; point_cost } =
  float_of_int steps *. 3.0 *. float_of_int (m * n) *. point_cost
  +. (float_of_int (m * n) *. point_cost)

(* {1 TreadMarks versions} *)

let bounds n nprocs p =
  let w = (n + nprocs - 1) / nprocs in
  (p * w, min (n - 1) (((p + 1) * w) - 1))

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { m; n; steps; point_cost } = prm in
  let sys = Tmk.make ?plan cfg in
  let names =
    [| "u"; "v"; "p"; "unew"; "vnew"; "pnew"; "uold"; "vold"; "pold";
       "cu"; "cv"; "z"; "h" |]
  in
  let arrs =
    Array.map (fun nm -> Tmk.Alloc.array sys nm ~dims:[ m; n ]) names
  in
  let np = cfg.Dsm_sim.Config.nprocs in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let jlo, jhi = bounds n np p in
      (* a processor past the last column owns none *)
      let width = max 0 (jhi - jlo + 1) in
      (* column buffers, handed out round robin: one column step holds
         at most 14 of them (phase 2) *)
      let pool = Array.init 16 (fun _ -> Array.make m 0.0) in
      let next = ref 0 in
      let buf () =
        next := (!next + 1) land 15;
        pool.(!next)
      in
      let g =
        {
          load =
            (fun a j ->
              let c = buf () in
              Shm.F64_2.read_col t arrs.(a) j ~lo:0 ~len:m c;
              c);
          out = (fun _ _ -> buf ());
          store =
            (fun a j c -> Shm.F64_2.write_col t arrs.(a) j ~lo:0 ~len:m c);
        }
      in
      (* sections: own partition and the (wrapped) neighbour columns *)
      let own a = Shm.F64_2.section arrs.(a) (0, m - 1, 1) (jlo, jhi, 1) in
      let left_col = (jlo + n - 1) mod n
      and right_col = (jhi + 1) mod n in
      let halo a side =
        let c = match side with `L -> left_col | `R -> right_col in
        Shm.F64_2.section arrs.(a) (0, m - 1, 1) (c, c, 1)
      in
      (* one-sided sections, exactly what regular section analysis derives
         from the stencils of each phase *)
      let validate_reads specs =
        match level with
        | Comm_aggr | Cons_elim ->
            Tmk.validate t ~async
              (List.map (fun (a, side) -> halo a side) specs)
              Tmk.Read
        | Base | Sync_merge | Push_opt -> ()
      in
      let validate_writes ids =
        match level with
        | Comm_aggr -> Tmk.validate t (List.map own ids) Tmk.Write
        | Cons_elim -> Tmk.validate t (List.map own ids) Tmk.Write_all
        | Base | Sync_merge | Push_opt -> ()
      in
      let validate_rw ids =
        (* phase-3 arrays are read and fully overwritten, all locally *)
        match level with
        | Comm_aggr -> Tmk.validate t (List.map own ids) Tmk.Read_write
        | Cons_elim -> Tmk.validate t (List.map own ids) Tmk.Read_write_all
        | Base | Sync_merge | Push_opt -> ()
      in
      validate_writes [ iu; iv; ip; iuold; ivold; ipold ];
      init g m n jlo jhi;
      Tmk.charge t (point_cost *. float_of_int (m * width));
      Tmk.barrier t;
      let tdt = ref dt in
      for step = 1 to steps do
        validate_reads [ (ip, `L); (ip, `R); (iu, `R) ];
        validate_writes [ icu; icv; iz; ih ];
        phase1 g m n jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        validate_reads [ (icu, `L); (ih, `L); (iz, `R); (icv, `R) ];
        validate_writes [ iunew; ivnew; ipnew ];
        phase2 g m n ~tdt:!tdt jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        validate_rw [ iu; iv; ip; iuold; ivold; ipold ];
        phase3 g m ~first:(step = 1) jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        if step = 1 then tdt := !tdt +. !tdt
      done);
  finish_tmk sys ~digest ~inspect (fun () ->
      let dref = reference prm in
      let err = ref 0.0 in
      Tmk.run sys (fun t ->
          if Tmk.pid t = 0 then begin
            let col = Array.make m 0.0 in
            List.iter
              (fun a ->
                for j = 0 to n - 1 do
                  Shm.F64_2.read_col t arrs.(a) j ~lo:0 ~len:m col;
                  for i = 0 to m - 1 do
                    err :=
                      combine_err !err
                        (col.(i) -. dref.{(((a * n) + j) * m) + i})
                  done
                done)
              [ iu; iv; ip ]
          end);
      !err)

(* {1 Message-passing versions}

   Each processor holds the columns of its partition plus one halo column
   on each side; the halos of the arrays a phase reads are refreshed by a
   ring exchange before the phase. *)

(* Every processor must own a column: its halo exchange sends its edge
   columns. The ceiling-width blocks fill from processor 0, so the last
   processor is the first left without one (44 processors at n = 128). *)
let run_mp ~version ~pack cfg ({ m; n; steps; point_cost } as prm) =
  let np = cfg.Dsm_sim.Config.nprocs in
  let lo, hi = bounds n np (np - 1) in
  if hi < lo then
    invalid_arg
      (Printf.sprintf
         "shallow %s on %d processors leaves processor %d without any of \
          the %d columns"
         version np (np - 1) n);
  let sys = Mp.make cfg in
  let results = Array.make np [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let jlo, jhi = bounds n np p in
      let width = jhi - jlo + 1 in
      let left_n = (p + np - 1) mod np
      and right_n = (p + 1) mod np in
      let left_col = (jlo + n - 1) mod n
      and right_col = (jhi + 1) mod n in
      (* local storage: slot 0 is the left halo, slots 1..width the own
         partition, slot width+1 the right halo (an own column wins when
         the ring wraps onto itself) *)
      let data =
        Array.init n_arrays (fun _ -> Array.make_matrix (width + 2) m 0.0)
      in
      let slot j =
        if jlo <= j && j <= jhi then j - jlo + 1
        else if j = left_col then 0
        else if j = right_col then width + 1
        else invalid_arg "shallow mp: column outside partition and halos"
      in
      let g = local_grid m (fun a j -> data.(a).(slot j)) in
      let exchange ids =
        (* send own edge columns, receive halos (periodic ring) *)
        let count = List.length ids in
        let sendbuf edge =
          let buf = Array.make (count * m) 0.0 in
          List.iteri
            (fun k a -> Array.blit data.(a).(slot edge) 0 buf (k * m) m)
            ids;
          buf
        in
        pack t (count * m * 2);
        Mp.send_floats t ~dst:left_n ~tag:7 (sendbuf jlo);
        Mp.send_floats t ~dst:right_n ~tag:8 (sendbuf jhi);
        let from_right = Mp.recv_floats t ~src:right_n ~tag:7 in
        let from_left = Mp.recv_floats t ~src:left_n ~tag:8 in
        pack t (count * m * 2);
        List.iteri
          (fun k a ->
            Array.blit from_left (k * m) data.(a).(0) 0 m;
            Array.blit from_right (k * m) data.(a).(width + 1) 0 m)
          ids
      in
      init g m n jlo jhi;
      init g m n left_col left_col;
      init g m n right_col right_col;
      Mp.charge t (point_cost *. float_of_int (m * width));
      let tdt = ref dt in
      for step = 1 to steps do
        phase1 g m n jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        exchange [ icu; icv; iz; ih ];
        phase2 g m n ~tdt:!tdt jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        phase3 g m ~first:(step = 1) jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        exchange [ iu; iv; ip ];
        if step = 1 then tdt := !tdt +. !tdt
      done;
      results.(p) <- data);
  let dref = reference prm in
  let err = ref 0.0 in
  Array.iteri
    (fun q res ->
      let jlo, jhi = bounds n np q in
      List.iter
        (fun a ->
          for j = jlo to jhi do
            for i = 0 to m - 1 do
              err :=
                combine_err !err
                  (res.(a).(j - jlo + 1).(i)
                  -. dref.{(((a * n) + j) * m) + i})
            done
          done)
        [ iu; iv; ip ])
    results;
  finish_mp sys ~max_err:!err

let pvm cfg ~size:prm ~behavior:() =
  run_mp ~version:"pvm" ~pack:(fun _ _ -> ()) cfg prm

let xhpf =
  Some
    (fun cfg ~size:prm ~behavior:() ->
      run_mp ~version:"xhpf" ~pack:(fun t e -> Hpf.charge_pack t e) cfg prm)

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name
