(* Typed access to the simulated shared segment.

   This is the load/store interface of the DSM: each access consults the
   page protection bits and enters the protocol's fault handlers exactly
   where a hardware MMU would deliver SIGSEGV. Elements are 4- or 8-byte
   aligned, and the page size is a multiple of 8, so no element straddles a
   page boundary. *)

open Types
module Page_table = Dsm_mem.Page_table
module Section = Dsm_rsd.Section

(* The common page sizes are powers of two; {!Types.system} caches the
   shift and mask so each access costs two bit ops instead of an integer
   division and a modulo (the dominant host cost of a run is exactly this
   per-element path). *)
let[@inline] page_of t addr =
  let s = t.sys.page_shift in
  if s >= 0 then addr lsr s else addr / t.sys.page_size

let[@inline] offset_of t addr =
  let s = t.sys.page_shift in
  if s >= 0 then addr land t.sys.page_mask else addr mod t.sys.page_size

let[@inline] page_for_read t addr =
  let page = page_of t addr in
  let pg = Page_table.entry t.st.pt page in
  match pg.Page_table.prot with
  | Page_table.No_access ->
      (* cold path: enter the run-time's fault handler *)
      Fetch.fault t.sys t.p page ~write:false;
      Page_table.get t.st.pt page
  | Page_table.Read_only | Page_table.Read_write -> pg

let[@inline] page_for_write t addr =
  let page = page_of t addr in
  let pg = Page_table.entry t.st.pt page in
  match pg.Page_table.prot with
  | Page_table.Read_write -> pg
  | Page_table.No_access | Page_table.Read_only ->
      Fetch.fault t.sys t.p page ~write:true;
      Page_table.get t.st.pt page

(* Unchecked native-order 64-bit access. Eight-byte elements are 8-aligned
   ({!Dsm_mem.Addr_space} aligns every base to 8) and the page size is a
   multiple of 8, so the in-page offset is always within [0, page_size-8]:
   the bound check on every load/store would never fire. Native order
   equals the little-endian wire format everywhere this simulator runs; on
   a big-endian host we fall back to the checked LE accessors so results
   stay identical ([Sys.big_endian] is a compile-time constant). *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_64_le b off =
  if Sys.big_endian then Bytes.get_int64_le b off else unsafe_get_64 b off

let[@inline] set_64_le b off v =
  if Sys.big_endian then Bytes.set_int64_le b off v else unsafe_set_64 b off v

(* Floats leave and enter a frame through a [floatarray] view of its
   bytes: [Int64.float_of_bits]/[bits_of_float] are external calls that
   clobber every float register, while a statically typed [floatarray]
   access is one untagged 8-byte load or store. The view is sound because
   element [off lsr 3] of the view is exactly bytes [off .. off + 7] of
   the frame (both index from the first word of the block), [off] is
   8-aligned and inside the page (see above), and a [Bytes] block holds no
   pointers, so the GC never scans what the view writes. The load and the
   store move the 64 bits unchanged, NaN payloads included. These two
   functions are the only place the frame is viewed as floats. *)
let[@inline] load_f64 (b : Bytes.t) off =
  if Sys.big_endian then Int64.float_of_bits (Bytes.get_int64_le b off)
  else Float.Array.unsafe_get (Obj.magic b : floatarray) (off lsr 3)

let[@inline] store_f64 (b : Bytes.t) off v =
  if Sys.big_endian then Bytes.set_int64_le b off (Int64.bits_of_float v)
  else Float.Array.unsafe_set (Obj.magic b : floatarray) (off lsr 3) v

let get_f64 t addr =
  let pg = page_for_read t addr in
  load_f64 pg.Page_table.data (offset_of t addr)

let set_f64 t addr v =
  let pg = page_for_write t addr in
  store_f64 pg.Page_table.data (offset_of t addr) v

let get_i64 t addr =
  let pg = page_for_read t addr in
  get_64_le pg.Page_table.data (offset_of t addr) |> Int64.to_int

let set_i64 t addr v =
  let pg = page_for_write t addr in
  set_64_le pg.Page_table.data (offset_of t addr) (Int64.of_int v)

let get_raw64 t addr =
  let pg = page_for_read t addr in
  get_64_le pg.Page_table.data (offset_of t addr)

let get_i32 t addr =
  let pg = page_for_read t addr in
  Bytes.get_int32_le pg.Page_table.data (offset_of t addr) |> Int32.to_int

let set_i32 t addr v =
  let pg = page_for_write t addr in
  Bytes.set_int32_le pg.Page_table.data (offset_of t addr) (Int32.of_int v)

(* {1 Spans}

   A span moves a contiguous run of 8-byte elements between the segment
   and a caller-owned array, checking protection once per page instead of
   once per element: the software counterpart of Validate turning a
   section into address ranges. Pages are entered in ascending order, each
   through the same fault kind the element loop would take, so a span
   faults exactly where the loop [for e = 0 to n - 1 do dst.(pos + e) <-
   get_f64 t (addr + 8 * e) done] (or its store counterpart) faults.
   Between the checks the loads and stores are unchecked: a page that
   passed its check stays accessible until the next synchronization, and
   a span never synchronizes.

   Each span spells out the page walk instead of passing its element loop
   to a shared walker: without flambda the closure would be allocated on
   every call, which raised the small kernels' minor allocation by 7–17%
   (Shallow 1.56 -> 1.82 Mw at 8 processors). *)

let check_span name a pos n =
  if n < 0 || pos < 0 || pos + n > Array.length a then invalid_arg name

(* elements of a span of [rem] left that fit on the page from in-page
   byte offset [off] on *)
let[@inline] chunk t off rem = min rem ((t.sys.page_size - off) lsr 3)

let read_f64s t addr (dst : float array) pos n =
  check_span "Shm.read_f64s" dst pos n;
  let addr = ref addr
  and pos = ref pos
  and rem = ref n in
  while !rem > 0 do
    let data = (page_for_read t !addr).Page_table.data in
    let off = offset_of t !addr in
    let k = chunk t off !rem in
    for e = 0 to k - 1 do
      Array.unsafe_set dst (!pos + e) (load_f64 data (off + (e lsl 3)))
    done;
    addr := !addr + (k lsl 3);
    pos := !pos + k;
    rem := !rem - k
  done

let write_f64s t addr (src : float array) pos n =
  check_span "Shm.write_f64s" src pos n;
  let addr = ref addr
  and pos = ref pos
  and rem = ref n in
  while !rem > 0 do
    let data = (page_for_write t !addr).Page_table.data in
    let off = offset_of t !addr in
    let k = chunk t off !rem in
    for e = 0 to k - 1 do
      store_f64 data (off + (e lsl 3)) (Array.unsafe_get src (!pos + e))
    done;
    addr := !addr + (k lsl 3);
    pos := !pos + k;
    rem := !rem - k
  done

(* Integer spans: the same page walk over 64-bit integer elements. *)

let read_i64s t addr (dst : int array) pos n =
  check_span "Shm.read_i64s" dst pos n;
  let addr = ref addr
  and pos = ref pos
  and rem = ref n in
  while !rem > 0 do
    let data = (page_for_read t !addr).Page_table.data in
    let off = offset_of t !addr in
    let k = chunk t off !rem in
    for e = 0 to k - 1 do
      Array.unsafe_set dst (!pos + e)
        (Int64.to_int (get_64_le data (off + (e lsl 3))))
    done;
    addr := !addr + (k lsl 3);
    pos := !pos + k;
    rem := !rem - k
  done

let fill_i64s t addr n v =
  if n < 0 then invalid_arg "Shm.fill_i64s";
  let v = Int64.of_int v in
  let addr = ref addr
  and rem = ref n in
  while !rem > 0 do
    let data = (page_for_write t !addr).Page_table.data in
    let off = offset_of t !addr in
    let k = chunk t off !rem in
    for e = 0 to k - 1 do
      set_64_le data (off + (e lsl 3)) v
    done;
    addr := !addr + (k lsl 3);
    rem := !rem - k
  done

(* the loop [set_i64 t a (get_i64 t a + x)] enters each page through the
   read path, then the write path *)
let add_i64s t addr (src : int array) pos n =
  check_span "Shm.add_i64s" src pos n;
  let addr = ref addr
  and pos = ref pos
  and rem = ref n in
  while !rem > 0 do
    ignore (page_for_read t !addr);
    let data = (page_for_write t !addr).Page_table.data in
    let off = offset_of t !addr in
    let k = chunk t off !rem in
    for e = 0 to k - 1 do
      let o = off + (e lsl 3) in
      let x = Array.unsafe_get src (!pos + e) in
      set_64_le data o (Int64.of_int (Int64.to_int (get_64_le data o) + x))
    done;
    addr := !addr + (k lsl 3);
    pos := !pos + k;
    rem := !rem - k
  done

(* {1 Array views}

   Thin wrappers computing byte addresses from indices (column-major, as in
   the Fortran originals: the first index is contiguous). *)

module F64_1 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i = a.Section.base + (8 * i)
  let get tmk a i = get_f64 tmk (addr a i)
  let set tmk a i v = set_f64 tmk (addr a i) v
  let length (a : t) = a.Section.extents.(0)

  let section (a : t) (lo, hi, st) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo, hi, st) ])
end

module F64_2 = struct
  type t = Section.array_info

  (* a 2-D view always carries two extents, so the bound check is dead *)
  let[@inline] addr (a : t) i j =
    a.Section.base + (8 * (i + (Array.unsafe_get a.Section.extents 0 * j)))

  let get tmk a i j = get_f64 tmk (addr a i j)
  let set tmk a i j v = set_f64 tmk (addr a i j) v

  (* read-modify-write with a single page lookup *)
  let rmw tmk a i j f =
    let ad = addr a i j in
    let pg = page_for_write tmk ad in
    let off = offset_of tmk ad in
    store_f64 pg.Page_table.data off (f (load_f64 pg.Page_table.data off))
  (* Column spans: row [i] of column [j] lives at index [i] of the
     caller's buffer. *)
  let read_col tmk a j ~lo ~len dst = read_f64s tmk (addr a lo j) dst lo len
  let write_col tmk a j ~lo ~len src = write_f64s tmk (addr a lo j) src lo len

  (* a(i) <- a(i) -. x(i) *. s through the write-fault path: the
     read-modify-write loop of an elimination step, one check per page *)
  let axpy_col tmk a j ~lo ~len (x : float array) s =
    check_span "Shm.F64_2.axpy_col" x lo len;
    let ad = ref (addr a lo j)
    and pos = ref lo
    and rem = ref len in
    while !rem > 0 do
      let data = (page_for_write tmk !ad).Page_table.data in
      let off = offset_of tmk !ad in
      let k = chunk tmk off !rem in
      for e = 0 to k - 1 do
        let o = off + (e lsl 3) in
        store_f64 data o
          (load_f64 data o -. (Array.unsafe_get x (!pos + e) *. s))
      done;
      ad := !ad + (k lsl 3);
      pos := !pos + k;
      rem := !rem - k
    done

  (* the sum of x(i) *. a(i), accumulated in ascending row order *)
  let dot_col tmk a j ~lo ~len (x : float array) =
    check_span "Shm.F64_2.dot_col" x lo len;
    let d = ref 0.0 in
    let ad = ref (addr a lo j)
    and pos = ref lo
    and rem = ref len in
    while !rem > 0 do
      let data = (page_for_read tmk !ad).Page_table.data in
      let off = offset_of tmk !ad in
      let k = chunk tmk off !rem in
      for e = 0 to k - 1 do
        d :=
          !d
          +. (Array.unsafe_get x (!pos + e)
             *. load_f64 data (off + (e lsl 3)))
      done;
      ad := !ad + (k lsl 3);
      pos := !pos + k;
      rem := !rem - k
    done;
    !d

  let dim0 (a : t) = a.Section.extents.(0)
  let dim1 (a : t) = a.Section.extents.(1)

  let section (a : t) (lo0, hi0, st0) (lo1, hi1, st1) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo0, hi0, st0); (lo1, hi1, st1) ])
end

module F64_3 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i j k =
    let e = a.Section.extents in
    a.Section.base
    + 8 * (i + (Array.unsafe_get e 0 * (j + (Array.unsafe_get e 1 * k))))

  let get tmk a i j k = get_f64 tmk (addr a i j k)
  let set tmk a i j k v = set_f64 tmk (addr a i j k) v

  let section (a : t) d0 d1 d2 =
    let tr (lo, hi, st) = (lo, hi, st) in
    Section.make a (Dsm_rsd.Rsd.make [ tr d0; tr d1; tr d2 ])
end

module I64_1 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i = a.Section.base + (8 * i)
  let get tmk a i = get_i64 tmk (addr a i)
  let set tmk a i v = set_i64 tmk (addr a i) v
  let length (a : t) = a.Section.extents.(0)

  let section (a : t) (lo, hi, st) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo, hi, st) ])
end
