(* Per-application access models for the static sharing-pattern
   classifier.

   Each model is a small IR program whose barrier epochs reproduce the
   shared-array accesses of the corresponding {!Dsm_apps} application —
   same allocation order, same partition functions (imported from the
   apps, not re-derived), same per-epoch read/write sections. The
   classifier only consumes per-page reader/writer processor sets, so
   the models may over-approximate {e within} a processor's own
   partition (e.g. "the owner touches all its cyclic columns" instead of
   "column k of iteration k"): that never changes which processors touch
   a page. What the models must get exactly right is which {e other}
   processors touch each page — halo columns (including the periodic
   wrap), broadcast regions, transpose slices, lock-shared sections.

   Accesses of one array that the analysis cannot compare symbolically
   (own partition vs. a wrapped halo column, both processor-dependent)
   are kept in separate regions with an empty lock critical section
   between them: regions separated only by lock operations stay in the
   same barrier epoch, and per-region accumulation sidesteps the
   probe-tested (inexact) union. *)

module Ir = Dsm_compiler.Ir
module Lin = Dsm_compiler.Lin

let c = Lin.const
let v = Lin.var

(* {1 IR builders} *)

(* A section spec is one (lo, count-1, stride) triple per dimension: the
   generated loop runs an index from 0 to count-1 and accesses
   [lo + stride * index], which the access analysis summarizes as the
   exact RSD (lo, lo + stride*(count-1), stride). Emptiness is a binding
   choice: count-1 = -1 yields a hi < lo descriptor that evaluates to no
   pages. *)
let nest dims mk =
  let rec go i dims idxs =
    match dims with
    | [] -> mk (List.rev idxs)
    | (lo, cnt1, stride) :: rest ->
        let ivar = Printf.sprintf "q%d" i in
        let idx = Lin.add lo (Lin.var ~coeff:stride ivar) in
        Ir.For
          { ivar; lo = c 0; hi = cnt1; body = [ go (i + 1) rest (idx :: idxs) ] }
  in
  [ go 0 dims [] ]

let rd arr dims =
  nest dims (fun aidx -> Ir.Set_scalar ("t", Ir.Load { Ir.aname = arr; aidx }))

let wr arr dims =
  nest dims (fun aidx -> Ir.Assign ({ Ir.aname = arr; aidx }, Ir.Fconst 0.0))

let rw arr dims =
  nest dims (fun aidx ->
      Ir.Assign ({ Ir.aname = arr; aidx }, Ir.Load { Ir.aname = arr; aidx }))

let lohi lo hi = (lo, Lin.sub hi lo, 1)

(* Empty critical section: a region separator that keeps the surrounding
   accesses in distinct regions of the same barrier epoch. *)
let sep k = [ Ir.Lock_acquire k; Ir.Lock_release k ]

let steady ~pname ~params ~arrays ~bindings body =
  {
    Ir.pname;
    params;
    arrays;
    privates = [];
    proc_bindings = bindings;
    body = [ Ir.For { ivar = "it"; lo = c 0; hi = c 3; body } ];
  }

let linear prog ~pname body = { prog with Ir.pname; body }

(* {1 Jacobi} *)

let jacobi (prm : Dsm_apps.Jacobi.params) ~nprocs:_ ~page_size =
  let m = prm.Dsm_apps.Jacobi.m in
  let rows = lohi (c 0) (c (m - 1)) in
  let bindings ~nprocs ~p =
    let lo, hi = Dsm_apps.Jacobi.bounds m nprocs p in
    (* the initialization loop covers the static boundary columns from
       the edge processors *)
    let ilo = if p = 0 then 0 else lo
    and ihi = if p = nprocs - 1 then m - 1 else hi in
    [ ("lo", lo); ("hi", hi); ("ilo", ilo); ("ihi", ihi) ]
  in
  let prog =
    steady ~pname:"jacobi-model"
      ~params:[ ("m", m) ]
      ~arrays:[ ("b", [ c m; c m ]) ]
      ~bindings
      ([ Ir.Barrier 0 ]
      (* phase 1: the stencil reads own and neighbour columns *)
      @ rd "b" [ rows; lohi (Lin.offset (v "lo") (-1)) (Lin.offset (v "hi") 1) ]
      @ [ Ir.Barrier 1 ]
      (* phase 2: copy back into the own columns *)
      @ wr "b" [ rows; lohi (v "lo") (v "hi") ])
  in
  {
    Classify.prog;
    init =
      Some
        (linear prog ~pname:"jacobi-init"
           (wr "b" [ rows; lohi (v "ilo") (v "ihi") ]));
    arrays = [ ("b", [ m; m ]) ];
    page_size;
  }

(* {1 Gauss}

   Columns cyclic; the pivot/multiplier broadcast rotates through the
   [work] array. The steady cycle unrolls one full rotation (nprocs
   eliminations, two epochs each) so the classifier sees the ownership
   of the broadcast region move — that rotation is exactly why [work]'s
   pages classify inexact while [a]'s columns (touched only by their
   cyclic owner, every epoch) classify exact. *)

let cyclic_cols ~count = (v "p", v "mycols", count)

let gauss (prm : Dsm_apps.Gauss.params) ~nprocs ~page_size:_ =
  let m = prm.Dsm_apps.Gauss.m in
  let page_size = Dsm_apps.Gauss.page_size prm in
  let rows = lohi (c 0) (c (m - 1)) in
  let own = [ rows; cyclic_cols ~count:nprocs ] in
  let bindings ~nprocs ~p =
    [ ("p", p); ("mycols", (m - 1 - p) / nprocs) ]
    @ List.init nprocs (fun e ->
          (Printf.sprintf "w%dcnt" e, if p = e then m - 1 else -1))
  in
  let body =
    List.concat
      (List.init nprocs (fun e ->
           [ Ir.Barrier (2 * e) ]
           (* elimination step k = e (mod nprocs): the owner scans and
              swaps its pivot column and writes the broadcast section *)
           @ rw "a" own
           @ wr "work" [ (c 1, v (Printf.sprintf "w%dcnt" e), 1) ]
           @ [ Ir.Barrier ((2 * e) + 1) ]
           (* everyone reads the broadcast and updates its own columns *)
           @ rd "work" [ lohi (c 1) (c m) ]
           @ rw "a" own))
  in
  let prog =
    steady ~pname:"gauss-model"
      ~params:[ ("m", m) ]
      ~arrays:[ ("a", [ c m; c m ]); ("work", [ c (m + 1) ]) ]
      ~bindings body
  in
  {
    Classify.prog;
    init = Some (linear prog ~pname:"gauss-init" (wr "a" own));
    arrays = [ ("a", [ m; m ]); ("work", [ m + 1 ]) ];
    page_size;
  }

(* {1 Modified Gram-Schmidt}

   Same rotation structure as Gauss, but the broadcast region is the
   just-normalized column of [q] itself: the owner's column pages are
   read by everyone once per sweep, so they oscillate between private
   and producer-consumer windows — inexact by design, with the
   whole-cycle union (home-based LRC at the owner) as the hint. *)

let mgs (prm : Dsm_apps.Mgs.params) ~nprocs ~page_size:_ =
  let m = prm.Dsm_apps.Mgs.m and n = prm.Dsm_apps.Mgs.n in
  let page_size = Dsm_apps.Mgs.page_size prm in
  let rows = lohi (c 0) (c (m - 1)) in
  let own = [ rows; cyclic_cols ~count:nprocs ] in
  let bindings ~nprocs ~p = [ ("p", p); ("mycols", (n - 1 - p) / nprocs) ] in
  let body =
    List.concat
      (List.init nprocs (fun e ->
           [ Ir.Barrier (2 * e) ]
           (* the owner normalizes vector i = e (mod nprocs) *)
           @ rw "q" own
           @ [ Ir.Barrier ((2 * e) + 1) ]
           (* everyone reads the normalized vector (a column of
              processor e) and updates its own later columns *)
           @ rd "q" [ rows; (c e, c ((n - 1 - e) / nprocs), nprocs) ]
           @ sep 90
           @ rw "q" own))
  in
  let prog =
    steady ~pname:"mgs-model"
      ~params:[ ("m", m); ("n", n) ]
      ~arrays:[ ("q", [ c m; c n ]) ]
      ~bindings body
  in
  {
    Classify.prog;
    init = Some (linear prog ~pname:"mgs-init" (wr "q" own));
    arrays = [ ("q", [ m; n ]) ];
    page_size;
  }

(* {1 Integer Sort} *)

let is (prm : Dsm_apps.Is.params) ~nprocs ~page_size =
  let nb = prm.Dsm_apps.Is.n_buckets in
  let page_size = Dsm_apps.Is.run_page_size ~nprocs ~page_size prm in
  let whole = [ lohi (c 0) (c (nb - 1)) ] in
  let bindings ~nprocs ~p =
    let lo, hi = Dsm_apps.Is.bucket_section prm ~nprocs p in
    [ ("slo", lo); ("scnt", hi - lo - 1) ]
  in
  let body =
    [ Ir.Barrier 0 ]
    (* zero the own section of the shared buckets *)
    @ wr "bucket" [ (v "slo", v "scnt", 1) ]
    @ [ Ir.Barrier 1; Ir.Lock_acquire 0 ]
    (* staggered lock-protected accumulation touches every section *)
    @ rw "bucket" whole
    @ [ Ir.Lock_release 0; Ir.Barrier 2 ]
    (* ranking reads all buckets *)
    @ rd "bucket" whole
  in
  let prog =
    steady ~pname:"is-model"
      ~params:[ ("nb", nb) ]
      ~arrays:[ ("bucket", [ c nb ]) ]
      ~bindings body
  in
  { Classify.prog; init = None; arrays = [ ("bucket", [ nb ]) ]; page_size }

(* {1 Shallow}

   Thirteen arrays, block columns, periodic halos. The wrapped neighbour
   columns are per-processor bindings ([hl]/[hr]); they sit in separate
   lock-delimited regions so their union with the own partition (not
   symbolically comparable) never degrades the summaries to inexact. *)

let shallow (prm : Dsm_apps.Shallow.params) ~nprocs:_ ~page_size =
  let m = prm.Dsm_apps.Shallow.m and n = prm.Dsm_apps.Shallow.n in
  let rows = lohi (c 0) (c (m - 1)) in
  let own = [ rows; lohi (v "jlo") (v "jhi") ] in
  let col x = [ rows; lohi (v x) (v x) ] in
  let bindings ~nprocs ~p =
    let jlo, jhi = Dsm_apps.Shallow.bounds n nprocs p in
    [
      ("jlo", jlo);
      ("jhi", jhi);
      ("hl", (jlo + n - 1) mod n);
      ("hr", (jhi + 1) mod n);
    ]
  in
  let body =
    [ Ir.Barrier 0 ]
    (* phase 1: cu,cv,z,h from u,v,p *)
    @ rd "u" own @ rd "v" own @ rd "p" own
    @ wr "cu" own @ wr "cv" own @ wr "z" own @ wr "h" own
    @ sep 90
    @ rd "p" (col "hl")
    @ sep 91
    @ rd "p" (col "hr") @ rd "u" (col "hr") @ rd "v" (col "hr")
    @ [ Ir.Barrier 1 ]
    (* phase 2: unew,vnew,pnew from cu,cv,z,h and the old arrays *)
    @ rd "uold" own @ rd "vold" own @ rd "pold" own
    @ rd "cu" own @ rd "cv" own @ rd "z" own @ rd "h" own
    @ wr "unew" own @ wr "vnew" own @ wr "pnew" own
    @ sep 92
    @ rd "cu" (col "hl") @ rd "h" (col "hl")
    @ sep 93
    @ rd "z" (col "hr") @ rd "cv" (col "hr")
    @ [ Ir.Barrier 2 ]
    (* phase 3: time filter, all within the own partition *)
    @ rw "u" own @ rw "v" own @ rw "p" own
    @ rw "uold" own @ rw "vold" own @ rw "pold" own
    @ rd "unew" own @ rd "vnew" own @ rd "pnew" own
  in
  let names =
    [ "u"; "v"; "p"; "unew"; "vnew"; "pnew"; "uold"; "vold"; "pold";
      "cu"; "cv"; "z"; "h" ]
  in
  let prog =
    steady ~pname:"shallow-model"
      ~params:[ ("m", m); ("n", n) ]
      ~arrays:(List.map (fun nm -> (nm, [ c m; c n ])) names)
      ~bindings body
  in
  let init_body =
    List.concat_map (fun a -> wr a own) [ "u"; "v"; "p"; "uold"; "vold"; "pold" ]
  in
  {
    Classify.prog;
    init = Some (linear prog ~pname:"shallow-init" init_body);
    arrays = List.map (fun nm -> (nm, [ m; n ])) names;
    page_size;
  }

(* {1 FFT3D} *)

let fft3d (prm : Dsm_apps.Fft3d.params) ~nprocs:_ ~page_size =
  let n = prm.Dsm_apps.Fft3d.n in
  let d0 = lohi (c 0) (c ((2 * n) - 1)) and all = lohi (c 0) (c (n - 1)) in
  let own a = [ d0; all; lohi (v (a ^ "lo")) (v (a ^ "hi")) ] in
  let slice a =
    (* the transpose reader needs its target slab's rows of every source
       plane: a thin slice of every page *)
    [
      lohi (Lin.scale 2 (v (a ^ "lo"))) (Lin.offset (Lin.scale 2 (v (a ^ "hi"))) 1);
      all;
      all;
    ]
  in
  let bindings ~nprocs ~p =
    let lo, hi = Dsm_apps.Fft3d.bounds n nprocs p in
    [ ("xlo", lo); ("xhi", hi); ("ylo", lo); ("yhi", hi) ]
  in
  let body =
    [ Ir.Barrier 0 ]
    (* evolve + x/y FFTs over the own X slab *)
    @ rw "x" (own "x")
    @ [ Ir.Barrier 1 ]
    (* transpose: read X slices, z-FFT the own Y slab *)
    @ rd "x" (slice "y")
    @ rw "y" (own "y")
    @ [ Ir.Barrier 2 ]
    (* inverse transpose: read Y slices, rebuild the own X slab *)
    @ rd "y" (slice "x")
    @ wr "x" (own "x")
  in
  let dims = [ c (2 * n); c n; c n ] in
  let prog =
    steady ~pname:"fft3d-model"
      ~params:[ ("n", n) ]
      ~arrays:[ ("x", dims); ("y", dims) ]
      ~bindings body
  in
  let cdims = [ 2 * n; n; n ] in
  {
    Classify.prog;
    init = Some (linear prog ~pname:"fft3d-init" (wr "x" (own "x")));
    arrays = [ ("x", cdims); ("y", cdims) ];
    page_size;
  }

(* {1 Registry} *)

type size = Small | Large

type spec = {
  name : string;
  build : nprocs:int -> page_size:int -> size:size -> Classify.model;
}

let pick small large = function Small -> small | Large -> large

let all =
  [
    {
      name = "jacobi";
      build =
        (fun ~nprocs ~page_size ~size ->
          jacobi (pick Dsm_apps.Jacobi.small Dsm_apps.Jacobi.large size)
            ~nprocs ~page_size);
    };
    {
      name = "fft3d";
      build =
        (fun ~nprocs ~page_size ~size ->
          fft3d (pick Dsm_apps.Fft3d.small Dsm_apps.Fft3d.large size) ~nprocs
            ~page_size);
    };
    {
      name = "shallow";
      build =
        (fun ~nprocs ~page_size ~size ->
          shallow (pick Dsm_apps.Shallow.small Dsm_apps.Shallow.large size)
            ~nprocs ~page_size);
    };
    {
      name = "is";
      build =
        (fun ~nprocs ~page_size ~size ->
          is (pick Dsm_apps.Is.small Dsm_apps.Is.large size) ~nprocs ~page_size);
    };
    {
      name = "gauss";
      build =
        (fun ~nprocs ~page_size ~size ->
          gauss (pick Dsm_apps.Gauss.small Dsm_apps.Gauss.large size) ~nprocs
            ~page_size);
    };
    {
      name = "mgs";
      build =
        (fun ~nprocs ~page_size ~size ->
          mgs (pick Dsm_apps.Mgs.small Dsm_apps.Mgs.large size) ~nprocs
            ~page_size);
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
