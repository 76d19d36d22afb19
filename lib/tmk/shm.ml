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

let get_f64 t addr =
  let pg = page_for_read t addr in
  Int64.float_of_bits (get_64_le pg.Page_table.data (offset_of t addr))

let set_f64 t addr v =
  let pg = page_for_write t addr in
  set_64_le pg.Page_table.data (offset_of t addr) (Int64.bits_of_float v)

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
    let x = Int64.float_of_bits (get_64_le pg.Page_table.data off) in
    set_64_le pg.Page_table.data off (Int64.bits_of_float (f x))
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
