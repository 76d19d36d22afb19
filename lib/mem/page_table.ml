type prot = No_access | Read_only | Read_write

type page = {
  mutable data : Bytes.t;
  mutable prot : prot;
  mutable twin : Bytes.t option;
}

(* Dropped twins wait in [spares.(0 .. nspares - 1)] for the next write
   fault, so a twin is a blit into a recycled buffer rather than a fresh
   page-sized block in the major heap. At most [max_spares] wait: a
   constant, so the buffers kept back stay small beside the frames. *)
type t = {
  page_size : int;
  mutable pages : page option array;
  spares : Bytes.t array;
  mutable nspares : int;
}

let max_spares = 32

let create ~page_size =
  {
    page_size;
    pages = Array.make 64 None;
    spares = Array.make max_spares Bytes.empty;
    nspares = 0;
  }

let ensure_capacity t n =
  let len = Array.length t.pages in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    let pages = Array.make len' None in
    Array.blit t.pages 0 pages 0 len;
    t.pages <- pages
  end

(* A frameless page holds protection state only; real frames are never
   empty (the page size is positive), so the empty string marks one. *)
let[@inline] has_frame p = Bytes.length p.data > 0

let entry_slow t n =
  ensure_capacity t n;
  match t.pages.(n) with
  | Some p -> p
  | None ->
      let p =
        { data = Bytes.make t.page_size '\000'; prot = Read_only; twin = None }
      in
      t.pages.(n) <- Some p;
      p

(* Every simulated load/store goes through here; the fast path is one
   bounds check and one array read. *)
let[@inline] entry t n =
  let pages = t.pages in
  if n >= 0 && n < Array.length pages then
    match Array.unsafe_get pages n with Some p -> p | None -> entry_slow t n
  else entry_slow t n

let get t n =
  let p = entry t n in
  if not (has_frame p) then p.data <- Bytes.make t.page_size '\000';
  p

let find t n = if n < Array.length t.pages then t.pages.(n) else None

let invalidate t n =
  match find t n with
  | Some p ->
      let was_valid = p.prot <> No_access in
      p.prot <- No_access;
      was_valid
  | None ->
      ensure_capacity t n;
      t.pages.(n) <- Some { data = Bytes.empty; prot = No_access; twin = None };
      true

let drop_frame p =
  p.data <- Bytes.empty;
  p.prot <- No_access;
  p.twin <- None

let frames t =
  let acc = ref [] in
  for n = Array.length t.pages - 1 downto 0 do
    match t.pages.(n) with
    | Some p when has_frame p -> acc := n :: !acc
    | _ -> ()
  done;
  !acc

let make_twin t p =
  match p.twin with
  | Some _ -> ()
  | None ->
      if t.nspares = 0 then p.twin <- Some (Bytes.copy p.data)
      else begin
        let k = t.nspares - 1 in
        let twin = t.spares.(k) in
        t.spares.(k) <- Bytes.empty;
        t.nspares <- k;
        Bytes.blit p.data 0 twin 0 t.page_size;
        p.twin <- Some twin
      end

let drop_twin t p =
  match p.twin with
  | None -> ()
  | Some twin ->
      p.twin <- None;
      if t.nspares < max_spares then begin
        t.spares.(t.nspares) <- twin;
        t.nspares <- t.nspares + 1
      end
