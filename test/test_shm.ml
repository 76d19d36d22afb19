(* Typed shared-memory accessors and array views. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config

let cfg = { Config.default with Config.nprocs = 2; page_size = 128 }

let test_scalar_accessors () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  let base = a.Dsm_rsd.Section.base in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.set_f64 t base 3.25;
        Shm.set_i64 t (base + 8) (-42);
        Shm.set_i32 t (base + 16) 123456;
        Alcotest.(check (float 0.0)) "f64" 3.25 (Shm.get_f64 t base);
        Alcotest.(check int) "i64" (-42) (Shm.get_i64 t (base + 8));
        Alcotest.(check int) "i32" 123456 (Shm.get_i32 t (base + 16))
      end)

let test_views_addressing () =
  let sys = Tmk.make cfg in
  let m2 = Tmk.Alloc.array sys "m2" Tmk.F64 ~dims:[ 8; 4 ] in
  let m3 = Tmk.Alloc.array sys "m3" Tmk.F64 ~dims:[ 4; 3; 2 ] in
  (* column-major: first index contiguous *)
  Alcotest.(check int) "m2 (1,0) next to (0,0)" 8
    (Shm.F64_2.addr m2 1 0 - Shm.F64_2.addr m2 0 0);
  Alcotest.(check int) "m2 (0,1) one column later" (8 * 8)
    (Shm.F64_2.addr m2 0 1 - Shm.F64_2.addr m2 0 0);
  Alcotest.(check int) "m3 plane stride" (4 * 3 * 8)
    (Shm.F64_3.addr m3 0 0 1 - Shm.F64_3.addr m3 0 0 0);
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_2.set t m2 3 2 7.5;
        Alcotest.(check (float 0.0)) "get=set" 7.5 (Shm.F64_2.get t m2 3 2);
        Shm.F64_3.set t m3 1 2 1 9.0;
        Alcotest.(check (float 0.0)) "3d get=set" 9.0 (Shm.F64_3.get t m3 1 2 1)
      end)

let test_rmw () =
  let sys = Tmk.make cfg in
  let m2 = Tmk.Alloc.array sys "m2" Tmk.F64 ~dims:[ 8; 4 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_2.set t m2 2 1 10.0;
        Shm.F64_2.rmw t m2 2 1 (fun x -> x *. 3.0);
        Alcotest.(check (float 0.0)) "rmw applied" 30.0 (Shm.F64_2.get t m2 2 1)
      end)

let test_section_helpers () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  let s = Shm.F64_1.section a (8, 15, 1) in
  Alcotest.(check int) "section bytes" 64 (Dsm_rsd.Section.size_bytes s);
  Alcotest.(check int) "length" 64 (Shm.F64_1.length a);
  let s2 =
    Shm.F64_2.section (Tmk.Alloc.array sys "b" Tmk.F64 ~dims:[ 16; 16 ]) (0, 15, 1) (2, 3, 1)
  in
  Alcotest.(check int) "2d section" (16 * 2 * 8) (Dsm_rsd.Section.size_bytes s2)

let test_fault_counting () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then
        for k = 0 to 15 do
          Shm.F64_1.set t a k 1.0
        done;
      Tmk.barrier t;
      if p = 1 then ignore (Shm.F64_1.get t a 0));
  let st = Tmk.total_stats sys in
  (* one write fault at p0 (one 128B page touched), one read fault at p1 *)
  Alcotest.(check int) "exactly two faults" 2 st.Dsm_sim.Stats.segv;
  Alcotest.(check int) "one twin" 1 st.Dsm_sim.Stats.twins

let test_write_detection_reset () =
  (* after a release, the next interval's first write faults again (write
     detection), but the twin is kept and the pending diff accumulates
     lazily: one diff will later cover both intervals (TreadMarks' diff
     accumulation) *)
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 16 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_1.set t a 0 1.0;
        Tmk.barrier t;
        Shm.F64_1.set t a 0 2.0;
        Tmk.barrier t
      end
      else begin
        Tmk.barrier t;
        Tmk.barrier t
      end);
  let st = Tmk.total_stats sys in
  Alcotest.(check int) "two write faults" 2 st.Dsm_sim.Stats.segv;
  Alcotest.(check int) "one twin copy" 1 st.Dsm_sim.Stats.twins;
  Alcotest.(check int) "no diff materialized until requested" 0
    st.Dsm_sim.Stats.diffs_created

(* {1 Spans}

   Each span operation runs against the element loop it replaces, on twin
   systems: the same program runs once with the span and once with the
   loop. Before the operation, processor 1 writes some elements and
   processor 0 writes others on both sides of a barrier, so processor 0's
   pages are in every protection state (invalid, write-protected,
   writable, never touched). The array starts 8 bytes into a page and its
   20-row columns are 160 bytes against 128-byte pages, so spans start,
   end and cross anywhere. After the operation a barrier and a full read
   by processor 1 propagate its writes. Memory, statistics, clocks, the
   operation's result and the trace event sequence must all be identical,
   under every coherence backend. *)

type span_op = Read | Write | Axpy | Dot | Read_int | Fill_int | Add_int

type span_case = {
  op : span_op;
  backend : Config.backend_kind;
  col : int;  (* column of the column operations *)
  lo : int;  (* first element: row for columns, index for raw spans *)
  len : int;
  pos : int;  (* buffer index of the first element of a raw span *)
  other : int list;  (* written by processor 1 before the barrier *)
  early : int list;  (* written by processor 0 before the barrier *)
  late : int list;  (* written by processor 0 after the barrier *)
}

let span_rows = 20
let span_cols = 6
let span_n = span_rows * span_cols

let gen_span_case =
  let open QCheck.Gen in
  let elems = list_size (int_bound 6) (int_bound (span_n - 1)) in
  let* op = oneofl [ Read; Write; Axpy; Dot; Read_int; Fill_int; Add_int ] in
  let* backend =
    oneofl [ Config.Lrc; Config.Hlrc; Config.Inval; Config.Adaptive ]
  in
  let* col = int_bound (span_cols - 1) in
  let* lo, len =
    match op with
    | Read | Write | Read_int | Fill_int | Add_int ->
        let* lo = int_bound (span_n - 1) in
        let* len = int_bound (span_n - lo) in
        return (lo, len)
    | Axpy | Dot ->
        let* lo = int_bound (span_rows - 1) in
        let* len = int_bound (span_rows - lo) in
        return (lo, len)
  in
  let* pos = int_bound 5 in
  let* other = elems in
  let* early = elems in
  let* late = elems in
  return { op; backend; col; lo; len; pos; other; early; late }

let print_span_case c =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    "%s %s col=%d lo=%d len=%d pos=%d other=[%s] early=[%s] late=[%s]"
    (match c.op with
    | Read -> "read"
    | Write -> "write"
    | Axpy -> "axpy"
    | Dot -> "dot"
    | Read_int -> "read-int"
    | Fill_int -> "fill-int"
    | Add_int -> "add-int")
    (Config.backend_name c.backend)
    c.col c.lo c.len c.pos (ints c.other) (ints c.early) (ints c.late)

(* run [c] with the span ([~span:true]) or its element loop; the result
   is the operation's output followed by the observable system state *)
let run_span_case ~span c =
  let sys =
    Tmk.make
      {
        Config.default with
        Config.nprocs = 2;
        page_size = 128;
        backend = c.backend;
      }
  in
  let _pad = Tmk.Alloc.array sys "pad" Tmk.F64 ~dims:[ 1 ] in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ span_rows; span_cols ] in
  let sink = Dsm_trace.Sink.create ~nprocs:2 () in
  let buf = Array.init (span_n + 6) (fun k -> 0.5 +. float_of_int k) in
  let ibuf = Array.init (span_n + 6) (fun k -> (k * 7919) - 400) in
  let dot = ref 0.0 in
  let addr k = a.Dsm_rsd.Section.base + (8 * k) in
  let write_all t l v = List.iter (fun k -> Shm.set_f64 t (addr k) (v k)) l in
  Tmk.run ~trace:sink sys (fun t ->
      if Tmk.pid t = 1 then begin
        write_all t c.other (fun k -> 100.0 +. float_of_int k);
        Tmk.barrier t;
        Tmk.barrier t;
        for k = 0 to span_n - 1 do
          ignore (Shm.get_f64 t (addr k))
        done
      end
      else begin
        write_all t c.early (fun k -> 200.0 +. float_of_int k);
        Tmk.barrier t;
        write_all t c.late (fun k -> 300.0 +. float_of_int k);
        (match c.op with
        | Read when span -> Shm.read_f64s t (addr c.lo) buf c.pos c.len
        | Read ->
            for e = 0 to c.len - 1 do
              buf.(c.pos + e) <- Shm.get_f64 t (addr (c.lo + e))
            done
        | Write when span -> Shm.write_f64s t (addr c.lo) buf c.pos c.len
        | Write ->
            for e = 0 to c.len - 1 do
              Shm.set_f64 t (addr (c.lo + e)) buf.(c.pos + e)
            done
        | Axpy when span ->
            Shm.F64_2.axpy_col t a c.col ~lo:c.lo ~len:c.len buf 0.75
        | Axpy ->
            for i = c.lo to c.lo + c.len - 1 do
              Shm.F64_2.rmw t a i c.col (fun x -> x -. (buf.(i) *. 0.75))
            done
        | Dot when span ->
            dot := Shm.F64_2.dot_col t a c.col ~lo:c.lo ~len:c.len buf
        | Dot ->
            for i = c.lo to c.lo + c.len - 1 do
              dot := !dot +. (buf.(i) *. Shm.F64_2.get t a i c.col)
            done
        | Read_int when span -> Shm.read_i64s t (addr c.lo) ibuf c.pos c.len
        | Read_int ->
            for e = 0 to c.len - 1 do
              ibuf.(c.pos + e) <- Shm.get_i64 t (addr (c.lo + e))
            done
        | Fill_int when span -> Shm.fill_i64s t (addr c.lo) c.len (-7)
        | Fill_int ->
            for e = 0 to c.len - 1 do
              Shm.set_i64 t (addr (c.lo + e)) (-7)
            done
        | Add_int when span -> Shm.add_i64s t (addr c.lo) ibuf c.pos c.len
        | Add_int ->
            for e = 0 to c.len - 1 do
              let ad = addr (c.lo + e) in
              Shm.set_i64 t ad (Shm.get_i64 t ad + ibuf.(c.pos + e))
            done);
        Tmk.barrier t
      end);
  let time = Tmk.elapsed sys
  and stats = Tmk.total_stats sys
  and events = Dsm_trace.Sink.events sink in
  (buf, ibuf, !dot, time, stats, events, Tmk.digest sys)

let prop_span_equivalence =
  QCheck.Test.make ~count:300
    ~name:"span ops fault, charge and trace like their element loops"
    (QCheck.make ~print:print_span_case gen_span_case) (fun c ->
      let buf1, ibuf1, dot1, time1, stats1, ev1, dig1 =
        run_span_case ~span:true c
      and buf2, ibuf2, dot2, time2, stats2, ev2, dig2 =
        run_span_case ~span:false c
      in
      let bits = Array.map Int64.bits_of_float in
      bits buf1 = bits buf2
      && ibuf1 = ibuf2
      && Int64.bits_of_float dot1 = Int64.bits_of_float dot2
      && Int64.bits_of_float time1 = Int64.bits_of_float time2
      && stats1 = stats2 && ev1 = ev2 && dig1 = dig2)

(* {1 The float view}

   Floats cross a page frame through a [floatarray] view of its bytes;
   the view must agree bit for bit with the [Int64] path in both
   directions: a pattern stored as an integer loads as the float with
   those bits, and a float stored through the view reads back as its
   bits. Patterns are drawn to cover NaNs with payloads (quiet and
   signalling, either sign), infinities, zeros of either sign and
   subnormals as well as arbitrary words. *)

let gen_bits =
  let open QCheck.Gen in
  let word =
    map2
      (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
      (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)
  in
  let with_exp e =
    (* sign and mantissa from [w], biased exponent [e] *)
    map
      (fun w ->
        Int64.(
          logor
            (logand w 0x800F_FFFF_FFFF_FFFFL)
            (shift_left (of_int e) 52)))
      word
  in
  oneof
    [
      word;
      with_exp 0x7FF (* NaNs, and infinities when the mantissa is 0 *);
      with_exp 0 (* subnormals and signed zeros *);
      oneofl
        [ 0L; Int64.min_int; 0x7FF0_0000_0000_0001L; 0xFFF8_0000_0000_0000L ];
    ]

let prop_float_view =
  QCheck.Test.make ~count:300
    ~name:"float view agrees bit for bit with the Int64 path"
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map (Printf.sprintf "%Lx") l))
       QCheck.Gen.(list_size (int_range 1 24) gen_bits))
    (fun pats ->
      let sys = Tmk.make cfg in
      let n = List.length pats in
      let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ n ] in
      let addr k = a.Dsm_rsd.Section.base + (8 * k) in
      let pats = Array.of_list pats in
      let ok = ref true in
      Tmk.run sys (fun t ->
          if Tmk.pid t = 0 then begin
            (* integer in, float out: elements and a span *)
            Array.iteri
              (fun k b -> Shm.set_i64 t (addr k) (Int64.to_int b))
              pats;
            Array.iteri
              (fun k b ->
                let b = Int64.of_int (Int64.to_int b) in
                ok :=
                  !ok
                  && Int64.bits_of_float (Shm.get_f64 t (addr k)) = b
                  && Shm.get_raw64 t (addr k) = b)
              pats;
            (* [set_i64] keeps 63 bits; the top bit goes through raw
               floats *)
            let fl = Array.map Int64.float_of_bits pats in
            Shm.write_f64s t (addr 0) fl 0 n;
            Array.iteri
              (fun k b -> ok := !ok && Shm.get_raw64 t (addr k) = b)
              pats;
            let back = Array.make n 0.0 in
            Shm.read_f64s t (addr 0) back 0 n;
            Array.iteri
              (fun k b ->
                ok :=
                  !ok
                  && Int64.bits_of_float back.(k) = b
                  && Int64.bits_of_float (Shm.get_f64 t (addr k)) = b)
              pats;
            (* float in one element at a time, integer and raw out *)
            Array.iteri (fun k f -> Shm.set_f64 t (addr k) f) fl;
            Array.iteri
              (fun k b ->
                ok :=
                  !ok
                  && Shm.get_raw64 t (addr k) = b
                  && Shm.get_i64 t (addr k) = Int64.to_int b)
              pats
          end);
      !ok)

let test_span_bounds () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 8; 4 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        let buf = Array.make 8 0.0 in
        Alcotest.check_raises "span past the buffer"
          (Invalid_argument "Shm.read_f64s") (fun () ->
            Shm.read_f64s t a.Dsm_rsd.Section.base buf 4 5);
        Alcotest.check_raises "negative length"
          (Invalid_argument "Shm.write_f64s") (fun () ->
            Shm.write_f64s t a.Dsm_rsd.Section.base buf 0 (-1));
        Shm.F64_2.write_col t a 2 ~lo:0 ~len:8
          (Array.init 8 float_of_int);
        Shm.F64_2.read_col t a 2 ~lo:3 ~len:4 buf;
        Alcotest.(check (array (float 0.0))) "rows land at their index"
          [| 0.; 0.; 0.; 3.; 4.; 5.; 6.; 0. |] buf
      end)

let tests =
  [
    Alcotest.test_case "scalar accessors" `Quick test_scalar_accessors;
    Alcotest.test_case "span bounds and placement" `Quick test_span_bounds;
    Alcotest.test_case "view addressing" `Quick test_views_addressing;
    Alcotest.test_case "rmw" `Quick test_rmw;
    Alcotest.test_case "section helpers" `Quick test_section_helpers;
    Alcotest.test_case "fault counting" `Quick test_fault_counting;
    Alcotest.test_case "write detection reset" `Quick test_write_detection_reset;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_span_equivalence; prop_float_view ]
