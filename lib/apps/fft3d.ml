(* 3D Fast Fourier Transform, after the NAS FT benchmark: each iteration
   evolves the data, performs the x/y FFTs locally on the processor's slabs,
   transposes the distributed dimension (the producer-consumer communication
   at the barrier the paper describes), runs the z FFT locally, and
   transposes back.

   The cube X is slab-distributed along z; its transpose Y along x. A
   transpose reader needs a thin slice of every page of the source array, so
   the base run-time transfers whole-page diffs that mostly contain other
   readers' slices — the false-sharing-style data amplification that [Push]
   eliminates by sending exactly the per-processor intersections. All five
   optimization levels apply, as in the paper. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "3D-FFT"

type params = { n : int; iters : int; bf_cost : float }

(* Stand-ins for the paper's 2^6x2^6x2^6 and 2^5x2^6x2^5 sets; per-iteration
   compute calibrated to Table 1. *)
let large = { n = 32; iters = 3; bf_cost = 6.4 }
let small = { n = 16; iters = 3; bf_cost = 13.0 }
let size_name p = Printf.sprintf "%dx%dx%d" p.n p.n p.n
let levels = [ Base; Comm_aggr; Cons_elim; Sync_merge; Push_opt ]

let init_re i1 i2 i3 =
  float_of_int ((((i1 * 7) + (i2 * 13) + (i3 * 29)) mod 201) - 100) /. 100.0

let init_im i1 i2 i3 =
  float_of_int ((((i1 * 11) + (i2 * 3) + (i3 * 17)) mod 201) - 100) /. 100.0

(* the per-iteration "evolve" factor: a unit-modulus rotation *)
let evolve_re = cos 0.7
let evolve_im = sin 0.7

(* In-place iterative radix-2 complex FFT over local buffers. *)
let fft_inplace re im =
  let n = Array.length re in
  (* bit reversal *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* butterflies *)
  let len = ref 2 in
  while !len <= n do
    let ang = -2.0 *. Float.pi /. float_of_int !len in
    let wr = cos ang
    and wi = sin ang in
    let half = !len / 2 in
    let i = ref 0 in
    while !i < n do
      let cr = ref 1.0
      and ci = ref 0.0 in
      for k = 0 to half - 1 do
        let a = !i + k
        and b = !i + k + half in
        let tr = (re.(b) *. !cr) -. (im.(b) *. !ci) in
        let ti = (re.(b) *. !ci) +. (im.(b) *. !cr) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti;
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

(* slab bounds along one dimension *)
let bounds n nprocs p =
  let w = (n + nprocs - 1) / nprocs in
  (p * w, min (n - 1) (((p + 1) * w) - 1))

(* Once processors outnumber the planes by about 2:1, [bounds] starts
   the trailing slabs past the last plane ([hi + 1 < lo]). Their width is
   clamped to 0: an empty slab, which computes nothing and sends and
   receives empty transposes. *)
let slab_width n np p =
  let lo, hi = bounds n np p in
  max 0 (hi - lo + 1)

(* {1 Sequential reference}

   Identical operation sequence on plain arrays; X and Y are stored flat in
   the same layout as the shared versions: X.(d0 + 2n*(i2 + n*i3)). *)

let seq_arrays { n; iters; _ } =
  let sz = 2 * n * n * n in
  let x = Array.make sz 0.0 in
  let y = Array.make sz 0.0 in
  let idx i1 i2 i3 = 2 * (i1 + (n * (i2 + (n * i3)))) in
  for i3 = 0 to n - 1 do
    for i2 = 0 to n - 1 do
      for i1 = 0 to n - 1 do
        x.(idx i1 i2 i3) <- init_re i1 i2 i3;
        x.(idx i1 i2 i3 + 1) <- init_im i1 i2 i3
      done
    done
  done;
  let re = Array.make n 0.0
  and im = Array.make n 0.0 in
  for _k = 1 to iters do
    (* evolve *)
    for t = 0 to (n * n * n) - 1 do
      let r = x.(2 * t)
      and i = x.((2 * t) + 1) in
      x.(2 * t) <- (r *. evolve_re) -. (i *. evolve_im);
      x.((2 * t) + 1) <- (r *. evolve_im) +. (i *. evolve_re)
    done;
    (* FFT along i1 then i2, per i3 plane *)
    for i3 = 0 to n - 1 do
      for i2 = 0 to n - 1 do
        for i1 = 0 to n - 1 do
          re.(i1) <- x.(idx i1 i2 i3);
          im.(i1) <- x.(idx i1 i2 i3 + 1)
        done;
        fft_inplace re im;
        for i1 = 0 to n - 1 do
          x.(idx i1 i2 i3) <- re.(i1);
          x.(idx i1 i2 i3 + 1) <- im.(i1)
        done
      done;
      for i1 = 0 to n - 1 do
        for i2 = 0 to n - 1 do
          re.(i2) <- x.(idx i1 i2 i3);
          im.(i2) <- x.(idx i1 i2 i3 + 1)
        done;
        fft_inplace re im;
        for i2 = 0 to n - 1 do
          x.(idx i1 i2 i3) <- re.(i2);
          x.(idx i1 i2 i3 + 1) <- im.(i2)
        done
      done
    done;
    (* transpose x<->z into Y: Y(i3,i2;i1) = X(i1,i2,i3) *)
    for i1 = 0 to n - 1 do
      for i2 = 0 to n - 1 do
        for i3 = 0 to n - 1 do
          y.(idx i3 i2 i1) <- x.(idx i1 i2 i3);
          y.(idx i3 i2 i1 + 1) <- x.(idx i1 i2 i3 + 1)
        done
      done
    done;
    (* FFT along z (dim0 of Y) *)
    for i1 = 0 to n - 1 do
      for i2 = 0 to n - 1 do
        for i3 = 0 to n - 1 do
          re.(i3) <- y.(idx i3 i2 i1);
          im.(i3) <- y.(idx i3 i2 i1 + 1)
        done;
        fft_inplace re im;
        for i3 = 0 to n - 1 do
          y.(idx i3 i2 i1) <- re.(i3);
          y.(idx i3 i2 i1 + 1) <- im.(i3)
        done
      done
    done;
    (* transpose back *)
    for i3 = 0 to n - 1 do
      for i2 = 0 to n - 1 do
        for i1 = 0 to n - 1 do
          x.(idx i1 i2 i3) <- y.(idx i3 i2 i1);
          x.(idx i1 i2 i3 + 1) <- y.(idx i3 i2 i1 + 1)
        done
      done
    done
  done;
  x

let seq_memo : (int * int, floats) Hashtbl.t = Hashtbl.create 4

let reference prm =
  memo seq_memo (prm.n, prm.iters) (fun () ->
      floats_of_array (seq_arrays prm))

(* virtual-time charges per iteration, per processor slab of width w *)
let fft_phase_cost bf n cols =
  bf *. float_of_int (cols * (n / 2)) *. (log (float_of_int n) /. log 2.0)

let seq_time_us { n; iters; bf_cost } =
  let cols = n * n in
  let per_iter =
    (bf_cost /. 4.0 *. float_of_int (n * n * n)) (* evolve *)
    +. (3.0 *. fft_phase_cost bf_cost n cols) (* three FFT dimensions *)
    +. (bf_cost /. 2.0 *. float_of_int (2 * n * n * n))
    (* two transposes *)
  in
  float_of_int iters *. per_iter

(* {1 TreadMarks versions} *)

let tmk ?trace ?(digest = false) ?plan ?(inspect = ignore) cfg ~size:prm
    ~behavior:() ~level ~async =
  let { n; iters; bf_cost } = prm in
  let sys = Tmk.make ?plan cfg in
  let x = Tmk.Alloc.array sys "x" Tmk.F64 ~dims:[ (2 * n); n; n ] in
  let y = Tmk.Alloc.array sys "y" Tmk.F64 ~dims:[ (2 * n); n; n ] in
  let np = cfg.Dsm_sim.Config.nprocs in
  (* X is slab-distributed along i3 (last dim), Y along i1 (its last dim,
     which holds X's first) *)
  let x_own_sections =
    Array.init np (fun q ->
        let lo, hi = bounds n np q in
        [ Shm.F64_3.section x (0, (2 * n) - 1, 1) (0, n - 1, 1) (lo, hi, 1) ])
  and x_slice_sections =
    (* the transpose reader q needs i1 in q's Y-slab, all i2, i3 *)
    Array.init np (fun q ->
        let lo, hi = bounds n np q in
        [ Shm.F64_3.section x (2 * lo, (2 * hi) + 1, 1) (0, n - 1, 1) (0, n - 1, 1) ])
  and y_own_sections =
    Array.init np (fun q ->
        let lo, hi = bounds n np q in
        [ Shm.F64_3.section y (0, (2 * n) - 1, 1) (0, n - 1, 1) (lo, hi, 1) ])
  and y_slice_sections =
    Array.init np (fun q ->
        let lo, hi = bounds n np q in
        [ Shm.F64_3.section y (2 * lo, (2 * hi) + 1, 1) (0, n - 1, 1) (0, n - 1, 1) ])
  in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let lo, hi = bounds n np p in
      let w = slab_width n np p in
      let re = Array.make n 0.0
      and im = Array.make n 0.0 in
      (* One row (fixed i2 and i3, all 2n floats along d0) is contiguous:
         the row loops move it with one span. A row lies within one page,
         so a span faults where its element loop does. The i2 FFT and the
         transposes are strided and stay on the element path. *)
      let row = Array.make (2 * n) 0.0 in
      let read_row a i2 i3 =
        Shm.read_f64s t (Shm.F64_3.addr a 0 i2 i3) row 0 (2 * n)
      and write_row a i2 i3 =
        Shm.write_f64s t (Shm.F64_3.addr a 0 i2 i3) row 0 (2 * n)
      in
      let unpack () =
        for d = 0 to n - 1 do
          re.(d) <- row.(2 * d);
          im.(d) <- row.((2 * d) + 1)
        done
      and pack () =
        for d = 0 to n - 1 do
          row.(2 * d) <- re.(d);
          row.((2 * d) + 1) <- im.(d)
        done
      in
      (* initialize own X slab *)
      (match level with
      | Cons_elim | Sync_merge | Push_opt ->
          Tmk.validate t x_own_sections.(p) Tmk.Write_all
      | Base | Comm_aggr -> ());
      for i3 = lo to hi do
        for i2 = 0 to n - 1 do
          for i1 = 0 to n - 1 do
            row.(2 * i1) <- init_re i1 i2 i3;
            row.((2 * i1) + 1) <- init_im i1 i2 i3
          done;
          write_row x i2 i3
        done
      done;
      Tmk.charge t (bf_cost /. 4.0 *. float_of_int (n * n * w));
      Tmk.barrier t;
      for _k = 1 to iters do
        (* evolve + 2D FFT on own X slab: the slab is overwritten after
           being read *)
        (match level with
        | Cons_elim | Sync_merge | Push_opt ->
            Tmk.validate t x_own_sections.(p) Tmk.Read_write_all
        | Comm_aggr -> Tmk.validate t x_own_sections.(p) Tmk.Read_write
        | Base -> ());
        for i3 = lo to hi do
          for i2 = 0 to n - 1 do
            read_row x i2 i3;
            for i1 = 0 to n - 1 do
              let r = row.(2 * i1)
              and i = row.((2 * i1) + 1) in
              row.(2 * i1) <- (r *. evolve_re) -. (i *. evolve_im);
              row.((2 * i1) + 1) <- (r *. evolve_im) +. (i *. evolve_re)
            done;
            write_row x i2 i3
          done
        done;
        Tmk.charge t (bf_cost /. 4.0 *. float_of_int (n * n * w));
        for i3 = lo to hi do
          for i2 = 0 to n - 1 do
            read_row x i2 i3;
            unpack ();
            fft_inplace re im;
            pack ();
            write_row x i2 i3
          done;
          for i1 = 0 to n - 1 do
            for i2 = 0 to n - 1 do
              re.(i2) <- Shm.F64_3.get t x (2 * i1) i2 i3;
              im.(i2) <- Shm.F64_3.get t x ((2 * i1) + 1) i2 i3
            done;
            fft_inplace re im;
            for i2 = 0 to n - 1 do
              Shm.F64_3.set t x (2 * i1) i2 i3 re.(i2);
              Shm.F64_3.set t x ((2 * i1) + 1) i2 i3 im.(i2)
            done
          done
        done;
        Tmk.charge t (2.0 *. fft_phase_cost bf_cost n (n * w));
        (* barrier A: producer-consumer for the transpose *)
        (match level with
        | Sync_merge ->
            Tmk.validate_w_sync t ~async x_slice_sections.(p) Tmk.Read;
            Tmk.barrier t
        | Push_opt ->
            Tmk.push t ~read_sections:x_slice_sections
              ~write_sections:x_own_sections
        | Base | Comm_aggr | Cons_elim -> Tmk.barrier t);
        (match level with
        | Comm_aggr | Cons_elim ->
            Tmk.validate t ~async x_slice_sections.(p) Tmk.Read
        | Base | Sync_merge | Push_opt -> ());
        (* transpose into own Y slab, then FFT along z *)
        (match level with
        | Cons_elim | Sync_merge | Push_opt ->
            Tmk.validate t y_own_sections.(p) Tmk.Write_all
        | Comm_aggr -> Tmk.validate t y_own_sections.(p) Tmk.Write
        | Base -> ());
        for i1 = lo to hi do
          for i2 = 0 to n - 1 do
            for i3 = 0 to n - 1 do
              Shm.F64_3.set t y (2 * i3) i2 i1 (Shm.F64_3.get t x (2 * i1) i2 i3);
              Shm.F64_3.set t y ((2 * i3) + 1) i2 i1
                (Shm.F64_3.get t x ((2 * i1) + 1) i2 i3)
            done
          done
        done;
        Tmk.charge t (bf_cost /. 2.0 *. float_of_int (n * n * w));
        for i1 = lo to hi do
          for i2 = 0 to n - 1 do
            read_row y i2 i1;
            unpack ();
            fft_inplace re im;
            pack ();
            write_row y i2 i1
          done
        done;
        Tmk.charge t (fft_phase_cost bf_cost n (n * w));
        (* barrier B: transpose back *)
        (match level with
        | Sync_merge ->
            Tmk.validate_w_sync t ~async y_slice_sections.(p) Tmk.Read;
            Tmk.barrier t
        | Push_opt ->
            Tmk.push t ~read_sections:y_slice_sections
              ~write_sections:y_own_sections
        | Base | Comm_aggr | Cons_elim -> Tmk.barrier t);
        (match level with
        | Comm_aggr | Cons_elim ->
            Tmk.validate t ~async y_slice_sections.(p) Tmk.Read
        | Base | Sync_merge | Push_opt -> ());
        (match level with
        | Cons_elim | Sync_merge | Push_opt ->
            Tmk.validate t x_own_sections.(p) Tmk.Write_all
        | Comm_aggr -> Tmk.validate t x_own_sections.(p) Tmk.Write
        | Base -> ());
        for i3 = lo to hi do
          for i2 = 0 to n - 1 do
            for i1 = 0 to n - 1 do
              Shm.F64_3.set t x (2 * i1) i2 i3 (Shm.F64_3.get t y (2 * i3) i2 i1);
              Shm.F64_3.set t x ((2 * i1) + 1) i2 i3
                (Shm.F64_3.get t y ((2 * i3) + 1) i2 i1)
            done
          done
        done;
        Tmk.charge t (bf_cost /. 2.0 *. float_of_int (n * n * w));
        (* barrier C: end of iteration (no cross-processor reads follow
           until the next transpose, so it stays a plain barrier) *)
        Tmk.barrier t
      done);
  let time_us = Tmk.elapsed sys in
  let stats = Tmk.total_stats sys in
  let xref = reference prm in
  let err = ref 0.0 in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        let row = Array.make (2 * n) 0.0 in
        for i3 = 0 to n - 1 do
          for i2 = 0 to n - 1 do
            Shm.read_f64s t (Shm.F64_3.addr x 0 i2 i3) row 0 (2 * n);
            for d0 = 0 to (2 * n) - 1 do
              err :=
                combine_err !err
                  (row.(d0) -. xref.{d0 + (2 * n * (i2 + (n * i3)))})
            done
          done
        done
      end);
  let homes = Tmk.homes sys in
  let classes = Tmk.adapt_classes sys in
  let digest = if digest then Tmk.digest sys else "" in
  inspect sys;
  make_result ~time_us ~stats ~max_err:!err ~digest
    ~homes ~classes ()

(* {1 Message-passing versions}

   Local slabs; the transpose is an all-to-all where each pair exchanges the
   intersection of the sender's slab and the receiver's target slab. *)

let run_mp ~pack cfg ({ n; iters; bf_cost } as prm) =
  let sys = Mp.make cfg in
  let np = cfg.Dsm_sim.Config.nprocs in
  let results = Array.make np [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let lo, hi = bounds n np p in
      let w = slab_width n np p in
      (* local slabs, same index order as the shared layout *)
      let idx i1 i2 i3l = 2 * (i1 + (n * (i2 + (n * i3l)))) in
      let x = Array.make (2 * n * n * w) 0.0 in
      let y = Array.make (2 * n * n * w) 0.0 in
      for i3 = lo to hi do
        for i2 = 0 to n - 1 do
          for i1 = 0 to n - 1 do
            x.(idx i1 i2 (i3 - lo)) <- init_re i1 i2 i3;
            x.(idx i1 i2 (i3 - lo) + 1) <- init_im i1 i2 i3
          done
        done
      done;
      Mp.charge t (bf_cost /. 4.0 *. float_of_int (n * n * w));
      let re = Array.make n 0.0
      and im = Array.make n 0.0 in
      let transpose src dst =
        (* send to q: src(i1 in q's slab, all i2, own i3) *)
        for q = 0 to np - 1 do
          if q <> p then begin
            let qlo, qhi = bounds n np q in
            let qw = slab_width n np q in
            let buf = Array.make (2 * qw * n * w) 0.0 in
            let pos = ref 0 in
            for i3l = 0 to w - 1 do
              for i2 = 0 to n - 1 do
                for i1 = qlo to qhi do
                  buf.(!pos) <- src.(idx i1 i2 i3l);
                  buf.(!pos + 1) <- src.(idx i1 i2 i3l + 1);
                  pos := !pos + 2
                done
              done
            done;
            pack t (2 * qw * n * w);
            Mp.send_floats t ~dst:q ~tag:(300 + p) buf
          end
        done;
        (* local part *)
        for i3l = 0 to w - 1 do
          for i2 = 0 to n - 1 do
            for i1 = lo to hi do
              dst.(idx (i3l + lo) i2 (i1 - lo)) <- src.(idx i1 i2 i3l);
              dst.(idx (i3l + lo) i2 (i1 - lo) + 1) <- src.(idx i1 i2 i3l + 1)
            done
          done
        done;
        for q = 0 to np - 1 do
          if q <> p then begin
            let qlo, qhi = bounds n np q in
            let qw = slab_width n np q in
            let buf = Mp.recv_floats t ~src:q ~tag:(300 + q) in
            pack t (2 * qw * n * w);
            (* buf holds src_q(i1 in own slab, i2, i3 in q's slab):
               dst(i3, i2; i1) = src(i1, i2, i3) *)
            let pos = ref 0 in
            for i3 = qlo to qhi do
              for i2 = 0 to n - 1 do
                for i1 = lo to hi do
                  dst.(idx i3 i2 (i1 - lo)) <- buf.(!pos);
                  dst.(idx i3 i2 (i1 - lo) + 1) <- buf.(!pos + 1);
                  pos := !pos + 2
                done
              done
            done
          end
        done;
        Mp.charge t (bf_cost /. 2.0 *. float_of_int (n * n * w))
      in
      for _k = 1 to iters do
        (* evolve + 2D FFT *)
        for i3l = 0 to w - 1 do
          for i2 = 0 to n - 1 do
            for i1 = 0 to n - 1 do
              let r = x.(idx i1 i2 i3l)
              and i = x.(idx i1 i2 i3l + 1) in
              x.(idx i1 i2 i3l) <- (r *. evolve_re) -. (i *. evolve_im);
              x.(idx i1 i2 i3l + 1) <- (r *. evolve_im) +. (i *. evolve_re)
            done
          done
        done;
        Mp.charge t (bf_cost /. 4.0 *. float_of_int (n * n * w));
        for i3l = 0 to w - 1 do
          for i2 = 0 to n - 1 do
            for i1 = 0 to n - 1 do
              re.(i1) <- x.(idx i1 i2 i3l);
              im.(i1) <- x.(idx i1 i2 i3l + 1)
            done;
            fft_inplace re im;
            for i1 = 0 to n - 1 do
              x.(idx i1 i2 i3l) <- re.(i1);
              x.(idx i1 i2 i3l + 1) <- im.(i1)
            done
          done;
          for i1 = 0 to n - 1 do
            for i2 = 0 to n - 1 do
              re.(i2) <- x.(idx i1 i2 i3l);
              im.(i2) <- x.(idx i1 i2 i3l + 1)
            done;
            fft_inplace re im;
            for i2 = 0 to n - 1 do
              x.(idx i1 i2 i3l) <- re.(i2);
              x.(idx i1 i2 i3l + 1) <- im.(i2)
            done
          done
        done;
        Mp.charge t (2.0 *. fft_phase_cost bf_cost n (n * w));
        transpose x y;
        for i1l = 0 to w - 1 do
          for i2 = 0 to n - 1 do
            for i3 = 0 to n - 1 do
              re.(i3) <- y.(idx i3 i2 i1l);
              im.(i3) <- y.(idx i3 i2 i1l + 1)
            done;
            fft_inplace re im;
            for i3 = 0 to n - 1 do
              y.(idx i3 i2 i1l) <- re.(i3);
              y.(idx i3 i2 i1l + 1) <- im.(i3)
            done
          done
        done;
        Mp.charge t (fft_phase_cost bf_cost n (n * w));
        transpose y x
      done;
      results.(p) <- x);
  let xref = reference prm in
  let err = ref 0.0 in
  Array.iteri
    (fun q xs ->
      let qlo, qhi = bounds n np q in
      for i3 = qlo to qhi do
        for i2 = 0 to n - 1 do
          for d0 = 0 to (2 * n) - 1 do
            err :=
              combine_err !err
                (xs.(d0 + (2 * n * (i2 + (n * (i3 - qlo)))))
                -. xref.{d0 + (2 * n * (i2 + (n * i3)))})
          done
        done
      done)
    results;
  make_result ~time_us:(Mp.elapsed sys) ~stats:(Mp.total_stats sys)
    ~max_err:!err ()

let pvm cfg ~size:prm ~behavior:() = run_mp ~pack:(fun _ _ -> ()) cfg prm

let xhpf =
  Some
    (fun cfg ~size:prm ~behavior:() ->
      run_mp ~pack:(fun t elems -> Hpf.charge_pack t elems) cfg prm)

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name
