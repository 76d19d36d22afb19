type t = {
  page_size : int;
  mutable brk : int;
  mutable arrs : Dsm_rsd.Section.array_info list;
}

let create ~page_size = { page_size; brk = 0; arrs = [] }

let align_up x a = (x + a - 1) / a * a

let alloc t ~name:_ ?(page_align = false) ~bytes () =
  let base = align_up t.brk (if page_align then t.page_size else 8) in
  t.brk <- base + bytes;
  base

let alloc_array t ~name ?(page_align = false) ~elem_size extents =
  let n = Array.fold_left ( * ) 1 extents in
  let base = alloc t ~name ~page_align ~bytes:(n * elem_size) () in
  let info = { Dsm_rsd.Section.name; base; elem_size; extents } in
  t.arrs <- info :: t.arrs;
  info

let n_pages t = (t.brk + t.page_size - 1) / t.page_size
let arrays t = List.rev t.arrs
