type t =
  | Zero
  | One
  | Node of { id : int; var : int; low : t; high : t }

let node_id = function Zero -> 0 | One -> 1 | Node { id; _ } -> id

(* Process-wide counters, cumulative across managers.  Plain references:
   the synthesis core is single-threaded per process, and these feed
   diagnostics only. *)
let created_total = ref 0
let op_hits_total = ref 0
let op_misses_total = ref 0
let reorders_total = ref 0

type counters = {
  nodes : int;      (* nodes ever hash-consed *)
  op_hits : int;    (* computed-table hits (ite, quantification,
                        relational product) *)
  op_misses : int;  (* computed-table misses *)
  reorders : int;   (* dynamic reordering passes *)
}

let counters () =
  {
    nodes = !created_total;
    op_hits = !op_hits_total;
    op_misses = !op_misses_total;
    reorders = !reorders_total;
  }

type manager = {
  mutable next_id : int;
  unique : (int, t) Hashtbl.t;  (* packed (var, low, high) ↦ node *)
  (* Direct-mapped lossy computed table for [ite] (CUDD-style): parallel
     int arrays hold the operand triple, [ct_r] the result; the
     relational product shares it under negative third keys.  A colliding
     entry is simply overwritten — recomputation returns the same
     canonical node, so losing an entry costs time, never soundness.
     Compared to a keyed hashtable this does no allocation per probe
     (no boxed tuple, no [Some]). *)
  mutable ct_f : int array;
  mutable ct_g : int array;
  mutable ct_h : int array;
  mutable ct_r : t array;
  mutable ct_mask : int;
  mutable ct_grow_at : int;     (* next_id at which the table doubles *)
  (* Same scheme for quantification, keyed by (node, varset token). *)
  mutable qt_node : int array;
  mutable qt_key : int array;
  mutable qt_r : t array;
  mutable qt_mask : int;
  mutable quant_vars : int list;        (* vars of current quantification *)
  mutable quant_key : int;              (* token for quant_vars *)
  quant_keys : (int list, int) Hashtbl.t;  (* varset ↦ stable token *)
  mutable next_quant_key : int;
  (* Dynamic variable order: [level_of.(v)] is the depth of variable
     [v]; empty arrays mean the identity order.  Only [reorder] ever
     installs a non-identity permutation. *)
  mutable level_of : int array;
  mutable var_at : int array;
  mutable reorder_threshold : int option;
  mutable reorders : int;
  mutable budget : Speccc_runtime.Budget.t option;
}

let ct_bits_initial = 12
let ct_bits_max = 19

let make_ct bits = (Array.make (1 lsl bits) (-1), 1 lsl bits)

let manager () =
  let ct_f, _ = make_ct ct_bits_initial in
  let qt_node, _ = make_ct ct_bits_initial in
  {
    next_id = 2;
    unique = Hashtbl.create 4096;
    ct_f;
    ct_g = Array.make (1 lsl ct_bits_initial) (-1);
    ct_h = Array.make (1 lsl ct_bits_initial) (-1);
    ct_r = Array.make (1 lsl ct_bits_initial) Zero;
    ct_mask = (1 lsl ct_bits_initial) - 1;
    ct_grow_at = 4 * (1 lsl ct_bits_initial);
    qt_node;
    qt_key = Array.make (1 lsl ct_bits_initial) (-1);
    qt_r = Array.make (1 lsl ct_bits_initial) Zero;
    qt_mask = (1 lsl ct_bits_initial) - 1;
    quant_vars = [];
    quant_key = -1;
    quant_keys = Hashtbl.create 64;
    next_quant_key = 0;
    level_of = [||];
    var_at = [||];
    reorder_threshold = None;
    reorders = 0;
    budget = None;
  }

let set_budget m budget = m.budget <- budget
let has_budget m = m.budget <> None

let node_count m = Hashtbl.length m.unique

let clear_caches m =
  Array.fill m.ct_f 0 (Array.length m.ct_f) (-1);
  Array.fill m.qt_node 0 (Array.length m.qt_node) (-1)

let zero _ = Zero
let one _ = One

(* Level of a variable under the current order; identity until the
   first reordering installs a permutation.  Variables beyond the
   permutation arrays keep their numeric level (reordering only ever
   permutes the prefix it was shown). *)
let level m v = if v < Array.length m.level_of then Array.unsafe_get m.level_of v else v

(* Packing limits for the unique-table key: variable in 12 bits, node
   ids in 25 bits each (33M nodes — far beyond what the memory
   watermarks allow to materialize). *)
let max_var = 1 lsl 12
let max_nodes = 1 lsl 25

let pack v l h = (v lsl 50) lor (l lsl 25) lor h

(* Every BDD operation (ite, quantification, composition) funnels
   through [mk], so charging fuel here governs them all: work between
   two [mk] calls is bounded by the operation caches. *)
let grow_ct m =
  let bits =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 (m.ct_mask + 1) 0
  in
  if bits < ct_bits_max then begin
    let size = 1 lsl (bits + 1) in
    m.ct_f <- Array.make size (-1);
    m.ct_g <- Array.make size (-1);
    m.ct_h <- Array.make size (-1);
    m.ct_r <- Array.make size Zero;
    m.ct_mask <- size - 1;
    m.qt_node <- Array.make size (-1);
    m.qt_key <- Array.make size (-1);
    m.qt_r <- Array.make size Zero;
    m.qt_mask <- size - 1
  end;
  m.ct_grow_at <- m.ct_grow_at * 4

let mk m v low high =
  (match m.budget with
   | Some budget -> Speccc_runtime.Budget.checkpoint budget ~stage:"bdd"
   | None -> ());
  if node_id low = node_id high then low
  else begin
    let key = pack v (node_id low) (node_id high) in
    match Hashtbl.find_opt m.unique key with
    | Some node -> node
    | None ->
      if m.next_id >= max_nodes then
        failwith "Bdd: node capacity exceeded (2^25 nodes)";
      if m.next_id >= m.ct_grow_at then grow_ct m;
      let node = Node { id = m.next_id; var = v; low; high } in
      m.next_id <- m.next_id + 1;
      incr created_total;
      Hashtbl.add m.unique key node;
      node
  end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  if i >= max_var then invalid_arg "Bdd.var: variable index too large";
  mk m i Zero One

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  if i >= max_var then invalid_arg "Bdd.nvar: variable index too large";
  mk m i One Zero

let equal a b = node_id a = node_id b
let is_zero d = equal d Zero
let is_one d = equal d One
let hash d = node_id d

let top_var = function Zero | One -> None | Node { var = v; _ } -> Some v

(* Allocation-free variant for hot traversals. *)
let top = function Zero | One -> -1 | Node { var = v; _ } -> v

let low = function
  | Node { low = l; _ } -> l
  | Zero | One -> invalid_arg "Bdd.low: constant"

let high = function
  | Node { high = h; _ } -> h
  | Zero | One -> invalid_arg "Bdd.high: constant"

let cofactors v = function
  | Node { var; low; high; _ } when var = v -> low, high
  | d -> d, d

(* Slot of an operand triple in the [ite] computed table. *)
let ct_slot m fi gi hi =
  ((fi * 0x9E3779B1) lxor (gi * 0x85EBCA77) lxor (hi * 0xC2B2AE3D))
  land m.ct_mask

let rec ite m f g h =
  match f, g, h with
  | One, _, _ -> g
  | Zero, _, _ -> h
  | _, One, Zero -> f
  | _ when equal g h -> g
  | _ ->
    let fi = node_id f and gi = node_id g and hi = node_id h in
    let idx = ct_slot m fi gi hi in
    if
      Array.unsafe_get m.ct_f idx = fi
      && Array.unsafe_get m.ct_g idx = gi
      && Array.unsafe_get m.ct_h idx = hi
    then begin
      incr op_hits_total;
      Array.unsafe_get m.ct_r idx
    end
    else begin
      incr op_misses_total;
      (* Split on the variable closest to the root under the current
         order. *)
      let lv d = match d with Node { var; _ } -> level m var | _ -> max_int in
      let lf = lv f and lg = lv g and lh = lv h in
      let l = min lf (min lg lh) in
      let v =
        if lf = l then (match f with Node { var; _ } -> var | _ -> assert false)
        else if lg = l then
          (match g with Node { var; _ } -> var | _ -> assert false)
        else (match h with Node { var; _ } -> var | _ -> assert false)
      in
      let f0, f1 = cofactors v f in
      let g0, g1 = cofactors v g in
      let h0, h1 = cofactors v h in
      let low = ite m f0 g0 h0 in
      let high = ite m f1 g1 h1 in
      let result = mk m v low high in
      let idx = ct_slot m fi gi hi in
      Array.unsafe_set m.ct_f idx fi;
      Array.unsafe_set m.ct_g idx gi;
      Array.unsafe_set m.ct_h idx hi;
      Array.unsafe_set m.ct_r idx result;
      result
    end

let not_ m f = ite m f Zero One
let and_ m f g = ite m f g Zero
let or_ m f g = ite m f One g
let xor m f g = ite m f (not_ m g) g
let imp m f g = ite m f g One
let eqv m f g = ite m f g (not_ m g)

let and_list m fs = List.fold_left (and_ m) One fs
let or_list m fs = List.fold_left (or_ m) Zero fs

let sort_by_level m vars =
  List.sort_uniq
    (fun a b ->
       let c = compare (level m a) (level m b) in
       if c <> 0 then c else compare a b)
    vars

(* Quantification over a variable list (processed in order-level
   order).  The computed table is keyed by a stable token per variable
   set, so alternating between the same few sets — as the bucket
   eliminator in the synthesis engine does every round — keeps hitting
   cached entries instead of resetting.  [set_quant_vars] returns the
   set in level order and makes [m.quant_key] its token. *)
let set_quant_vars m vars =
  let vars = sort_by_level m vars in
  if m.quant_vars <> vars then begin
    m.quant_vars <- vars;
    m.quant_key <-
      (match Hashtbl.find_opt m.quant_keys vars with
       | Some k -> k
       | None ->
         let k = m.next_quant_key in
         m.next_quant_key <- m.next_quant_key + 1;
         Hashtbl.add m.quant_keys vars k;
         k)
  end;
  vars

(* [remaining] is the level-sorted variable set still ahead of [f]'s
   root; [tag] keys the cache by the whole set and the quantifier, so
   entries hold for every suffix. *)
let rec quantify_from m ~is_forall tag remaining f =
  match f, remaining with
  | (Zero | One), _ -> f
  | _, [] -> f
  | Node { id; var; low; high; _ }, v :: rest ->
    if level m var > level m v then quantify_from m ~is_forall tag rest f
    else begin
      let idx = ((id * 0x9E3779B1) lxor (tag * 0x85EBCA77)) land m.qt_mask in
      if
        Array.unsafe_get m.qt_node idx = id
        && Array.unsafe_get m.qt_key idx = tag
      then begin
        incr op_hits_total;
        Array.unsafe_get m.qt_r idx
      end
      else begin
        incr op_misses_total;
        let result =
          if var = v then
            let l = quantify_from m ~is_forall tag rest low
            and h = quantify_from m ~is_forall tag rest high in
            if is_forall then and_ m l h else or_ m l h
          else
            let l = quantify_from m ~is_forall tag remaining low
            and h = quantify_from m ~is_forall tag remaining high in
            mk m var l h
        in
        Array.unsafe_set m.qt_node idx id;
        Array.unsafe_set m.qt_key idx tag;
        Array.unsafe_set m.qt_r idx result;
        result
      end
    end

let quantify m ~is_forall vars f =
  let vars = set_quant_vars m vars in
  let tag = (m.quant_key lsl 1) lor (if is_forall then 1 else 0) in
  quantify_from m ~is_forall tag vars f

let exists m vars f = quantify m ~is_forall:false vars f
let forall m vars f = quantify m ~is_forall:true vars f

(* The suffix of a level-sorted variable list from level [l] down. *)
let rec drop_above m l = function
  | v :: rest when level m v < l -> drop_above m l rest
  | vars -> vars

(* Relational product ∃vars. f ∧ g in one pass (CUDD's AndAbstract):
   the conjunction is never built whole, and a variable of [vars] is
   eliminated as soon as the recursion splits on it.  Results live in
   the [ite] computed table under a negative third key, [-2 - token]
   for the variable set's token: [ite] only ever stores node ids
   there, which are non-negative, and the initial fill is [-1].  The
   operands are ordered by id, since the product is commutative. *)
let and_exists m vars f g =
  let vars = set_quant_vars m vars in
  let tag = m.quant_key lsl 1 in
  let key = -2 - m.quant_key in
  let rec go remaining f g =
    match f, g with
    | Zero, _ | _, Zero -> Zero
    | One, _ -> quantify_from m ~is_forall:false tag remaining g
    | _, One -> quantify_from m ~is_forall:false tag remaining f
    | Node a, Node b ->
      if a.id = b.id then quantify_from m ~is_forall:false tag remaining f
      else begin
        let la = level m a.var and lb = level m b.var in
        let l = min la lb in
        match drop_above m l remaining with
        | [] -> and_ m f g
        | remaining ->
          let fi = min a.id b.id and gi = max a.id b.id in
          let idx = ct_slot m fi gi key in
          if
            Array.unsafe_get m.ct_f idx = fi
            && Array.unsafe_get m.ct_g idx = gi
            && Array.unsafe_get m.ct_h idx = key
          then begin
            incr op_hits_total;
            Array.unsafe_get m.ct_r idx
          end
          else begin
            incr op_misses_total;
            let v = if la = l then a.var else b.var in
            let f0, f1 = cofactors v f in
            let g0, g1 = cofactors v g in
            let result =
              match remaining with
              | u :: rest when u = v ->
                let r0 = go rest f0 g0 in
                if is_one r0 then One else or_ m r0 (go rest f1 g1)
              | _ -> mk m v (go remaining f0 g0) (go remaining f1 g1)
            in
            (* [mk] may have grown the table: recompute the slot. *)
            let idx = ct_slot m fi gi key in
            Array.unsafe_set m.ct_f idx fi;
            Array.unsafe_set m.ct_g idx gi;
            Array.unsafe_set m.ct_h idx key;
            Array.unsafe_set m.ct_r idx result;
            result
          end
      end
  in
  go vars f g

let restrict m assignment f =
  let assignment =
    List.sort_uniq
      (fun (a, _) (b, _) ->
         let c = compare (level m a) (level m b) in
         if c <> 0 then c else compare a b)
      assignment
  in
  let rec go remaining f =
    match f, remaining with
    | (Zero | One), _ -> f
    | _, [] -> f
    | Node { var; low; high; _ }, (v, value) :: rest ->
      if level m var > level m v then go rest f
      else if var = v then go rest (if value then high else low)
      else mk m var (go remaining low) (go remaining high)
  in
  go assignment f

let rec compose m v g f =
  match f with
  | Zero | One -> f
  | Node { var; low; high; _ } ->
    if level m var > level m v then f
    else if var = v then ite m g high low
    else
      let l = compose m v g low and h = compose m v g high in
      ite m (var_of m var) h l
and var_of m i = mk m i Zero One

let rename m mapping f =
  (* Substitute one variable at a time through fresh placeholders to
     avoid capture, then map placeholders to targets.  For the common
     case of disjoint source/target sets a direct pass suffices. *)
  let sources = List.map fst mapping in
  let targets = List.map snd mapping in
  let collision = List.exists (fun t -> List.mem t sources) targets in
  if not collision then
    List.fold_left (fun acc (src, dst) -> compose m src (var_of m dst) acc) f
      mapping
  else begin
    (* Route through placeholder variables beyond every used index. *)
    let max_used =
      List.fold_left max 0 (sources @ targets) + 1
    in
    let staged =
      List.mapi (fun i (src, dst) -> (src, max_used + i, dst)) mapping
    in
    let f =
      List.fold_left
        (fun acc (src, tmp, _) -> compose m src (var_of m tmp) acc)
        f staged
    in
    List.fold_left
      (fun acc (_, tmp, dst) -> compose m tmp (var_of m dst) acc)
      f staged
  end

let rename_monotone m mapping f =
  let mapping =
    List.sort
      (fun (a, _) (b, _) -> compare (level m a) (level m b))
      mapping
  in
  let rec check_monotone = function
    | [] | [ _ ] -> ()
    | (_, dst1) :: (((_, dst2) :: _) as rest) ->
      if level m dst1 >= level m dst2 then
        invalid_arg "Bdd.rename_monotone: mapping is not monotone";
      check_monotone rest
  in
  check_monotone mapping;
  List.iter
    (fun (_, dst) ->
       if dst < 0 then invalid_arg "Bdd.rename_monotone: negative target")
    mapping;
  let table = Hashtbl.create 16 in
  List.iter (fun (src, dst) -> Hashtbl.replace table src dst) mapping;
  let cache = Hashtbl.create 256 in
  let rec go = function
    | Zero -> Zero
    | One -> One
    | Node { id; var; low; high } ->
      (match Hashtbl.find_opt cache id with
       | Some result -> result
       | None ->
         let var' =
           match Hashtbl.find_opt table var with
           | Some dst -> dst
           | None -> var
         in
         let result = mk m var' (go low) (go high) in
         Hashtbl.add cache id result;
         result)
  in
  go f

let support m f =
  let module Int_set = Set.Make (Int) in
  let seen = Hashtbl.create 64 in
  let vars = ref Int_set.empty in
  let rec go = function
    | Zero | One -> ()
    | Node { id; var; low; high } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        vars := Int_set.add var !vars;
        go low;
        go high
      end
  in
  go f;
  List.sort
    (fun a b -> compare (level m a) (level m b))
    (Int_set.elements !vars)

(* [count d] = number of models of [d] over the order positions below
   [d]'s root level; models over all [nvars] positions are then
   obtained by scaling for the levels above the root. *)
let sat_count m f ~nvars =
  let cache = Hashtbl.create 64 in
  let pow2 k = 2.0 ** float_of_int k in
  let lvl = function Zero | One -> nvars | Node { var; _ } -> level m var in
  let rec count = function
    | Zero -> 0.0
    | One -> 1.0
    | Node { id; var; low; high } ->
      (match Hashtbl.find_opt cache id with
       | Some n -> n
       | None ->
         let n =
           (count low *. pow2 (lvl low - level m var - 1))
           +. (count high *. pow2 (lvl high - level m var - 1))
         in
         Hashtbl.add cache id n;
         n)
  in
  count f *. pow2 (lvl f)

let rec any_sat = function
  | Zero -> None
  | One -> Some []
  | Node { var; low; high; _ } ->
    (match any_sat high with
     | Some assignment -> Some ((var, true) :: assignment)
     | None ->
       (match any_sat low with
        | Some assignment -> Some ((var, false) :: assignment)
        | None -> None))

let rec eval d assignment =
  match d with
  | Zero -> false
  | One -> true
  | Node { var; low; high; _ } ->
    if assignment var then eval high assignment else eval low assignment

let size f =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go = function
    | Zero | One as terminal ->
      let id = node_id terminal in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        incr count
      end
    | Node { id; low; high; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        incr count;
        go low;
        go high
      end
  in
  go f;
  !count

let pp_dot ppf f =
  let seen = Hashtbl.create 64 in
  Format.fprintf ppf "digraph bdd {@\n";
  Format.fprintf ppf "  node0 [label=\"0\", shape=box];@\n";
  Format.fprintf ppf "  node1 [label=\"1\", shape=box];@\n";
  let rec go = function
    | Zero | One -> ()
    | Node { id; var; low; high } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        Format.fprintf ppf "  node%d [label=\"x%d\"];@\n" id var;
        Format.fprintf ppf "  node%d -> node%d [style=dashed];@\n" id
          (node_id low);
        Format.fprintf ppf "  node%d -> node%d;@\n" id (node_id high);
        go low;
        go high
      end
  in
  go f;
  Format.fprintf ppf "}@\n"

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering by group sifting.

   Hash-consed nodes are immutable, so CUDD's in-place level swaps
   cannot run on the live graph.  Instead the live portion (everything
   reachable from the caller's roots) is exported to a mutable scratch
   graph with reference counts, Rudell sifting runs there with exact
   per-level size accounting, and the result is imported back
   bottom-up into a fresh unique table.  Every [t] value not passed as
   a root is invalid afterwards. *)

type scratch = {
  mutable s_var : int array;
  mutable s_low : int array;
  mutable s_high : int array;
  mutable s_refs : int array;
  mutable s_n : int;
  s_tab : (int, int) Hashtbl.t array;  (* per var: (low, high) ↦ index *)
  s_cnt : int array;                   (* live nodes per var *)
  mutable s_total : int;
  s_lvl : int array;                   (* var ↦ level *)
  s_vat : int array;                   (* level ↦ var *)
}

let skey l h = (l lsl 28) lor h

let s_alloc s v l h =
  if s.s_n = Array.length s.s_var then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.s_var <- grow s.s_var 0;
    s.s_low <- grow s.s_low 0;
    s.s_high <- grow s.s_high 0;
    s.s_refs <- grow s.s_refs 0
  end;
  let i = s.s_n in
  s.s_n <- i + 1;
  s.s_var.(i) <- v;
  s.s_low.(i) <- l;
  s.s_high.(i) <- h;
  s.s_refs.(i) <- 0;
  i

let rec s_decref s i =
  if i >= 2 then begin
    s.s_refs.(i) <- s.s_refs.(i) - 1;
    if s.s_refs.(i) = 0 then begin
      let v = s.s_var.(i) in
      Hashtbl.remove s.s_tab.(v) (skey s.s_low.(i) s.s_high.(i));
      s.s_cnt.(v) <- s.s_cnt.(v) - 1;
      s.s_total <- s.s_total - 1;
      s_decref s s.s_low.(i);
      s_decref s s.s_high.(i)
    end
  end

let s_incref s i = if i >= 2 then s.s_refs.(i) <- s.s_refs.(i) + 1

(* Find-or-create with the reduction rule; fresh nodes hold references
   to their children and start with zero parents (the caller takes the
   reference). *)
let s_mk s v l h =
  if l = h then l
  else
    let key = skey l h in
    match Hashtbl.find_opt s.s_tab.(v) key with
    | Some i -> i
    | None ->
      let i = s_alloc s v l h in
      s_incref s l;
      s_incref s h;
      s.s_cnt.(v) <- s.s_cnt.(v) + 1;
      s.s_total <- s.s_total + 1;
      Hashtbl.add s.s_tab.(v) key i;
      i

(* Exchange adjacent levels [l] and [l+1].  Only nodes labelled with
   the upper variable that reference the lower one are rewritten, in
   place, so parent links stay valid. *)
let s_swap s l =
  let x = s.s_vat.(l) and y = s.s_vat.(l + 1) in
  let members = Hashtbl.fold (fun _ i acc -> i :: acc) s.s_tab.(x) [] in
  List.iter
    (fun f ->
       let f0 = s.s_low.(f) and f1 = s.s_high.(f) in
       let touches n = n >= 2 && s.s_var.(n) = y in
       if touches f0 || touches f1 then begin
         Hashtbl.remove s.s_tab.(x) (skey f0 f1);
         let f00, f01 =
           if touches f0 then (s.s_low.(f0), s.s_high.(f0)) else (f0, f0)
         in
         let f10, f11 =
           if touches f1 then (s.s_low.(f1), s.s_high.(f1)) else (f1, f1)
         in
         let g0 = s_mk s x f00 f10 in
         s_incref s g0;
         let g1 = s_mk s x f01 f11 in
         s_incref s g1;
         s.s_var.(f) <- y;
         s.s_low.(f) <- g0;
         s.s_high.(f) <- g1;
         Hashtbl.add s.s_tab.(y) (skey g0 g1) f;
         s.s_cnt.(x) <- s.s_cnt.(x) - 1;
         s.s_cnt.(y) <- s.s_cnt.(y) + 1;
         s_decref s f0;
         s_decref s f1
       end)
    members;
  s.s_vat.(l) <- y;
  s.s_vat.(l + 1) <- x;
  s.s_lvl.(y) <- l;
  s.s_lvl.(x) <- l + 1

(* Move variable [v] down one level repeatedly. *)
let s_move_down s v times =
  for _ = 1 to times do
    s_swap s s.s_lvl.(v)
  done

(* Swap two adjacent variable groups in the sequence. *)
let swap_groups s a b =
  (* Move each member of [a], bottom-most first, below all of [b]. *)
  for i = Array.length a - 1 downto 0 do
    s_move_down s a.(i) (Array.length b)
  done

let max_growth = 2.0

(* Sift one group through every legal position (levels >= [pinned]) and
   settle it where the live graph was smallest. *)
let sift_group s seq pos =
  let ngroups = Array.length seq in
  let best = ref s.s_total and best_pos = ref pos and cur = ref pos in
  let record () =
    if s.s_total < !best then begin
      best := s.s_total;
      best_pos := !cur
    end
  in
  (* Down to the bottom, aborting when the graph blows past the growth
     limit. *)
  (try
     while !cur < ngroups - 1 do
       swap_groups s seq.(!cur) seq.(!cur + 1);
       let tmp = seq.(!cur) in
       seq.(!cur) <- seq.(!cur + 1);
       seq.(!cur + 1) <- tmp;
       incr cur;
       record ();
       if float_of_int s.s_total > max_growth *. float_of_int !best then
         raise Exit
     done
   with Exit -> ());
  (* Up to the top.  The abort is only allowed once the group has
     passed the best position found so far, so settling can always
     reach it going down. *)
  (try
     while !cur > 0 do
       swap_groups s seq.(!cur - 1) seq.(!cur);
       let tmp = seq.(!cur) in
       seq.(!cur) <- seq.(!cur - 1);
       seq.(!cur - 1) <- tmp;
       decr cur;
       record ();
       if
         !cur < !best_pos
         && float_of_int s.s_total > max_growth *. float_of_int !best
       then raise Exit
     done
   with Exit -> ());
  (* Settle at the best position. *)
  while !cur < !best_pos do
    swap_groups s seq.(!cur) seq.(!cur + 1);
    let tmp = seq.(!cur) in
    seq.(!cur) <- seq.(!cur + 1);
    seq.(!cur + 1) <- tmp;
    incr cur
  done;
  while !cur > !best_pos do
    swap_groups s seq.(!cur - 1) seq.(!cur);
    let tmp = seq.(!cur) in
    seq.(!cur) <- seq.(!cur - 1);
    seq.(!cur - 1) <- tmp;
    decr cur
  done

let set_reorder_threshold m threshold = m.reorder_threshold <- threshold

let reorder_due m =
  match m.reorder_threshold with
  | None -> false
  | Some threshold -> Hashtbl.length m.unique >= threshold

let reorders m = m.reorders

let reorder m ?(pinned = 0) ?(groups = []) ?(candidates = 32) roots =
  (* Determine the variable universe: everything the manager has seen
     plus everything mentioned by roots and groups. *)
  let maxvar = ref (Array.length m.var_at - 1) in
  let scan_var v = if v > !maxvar then maxvar := v in
  List.iter (fun g -> List.iter scan_var g) groups;
  let seen = Hashtbl.create 1024 in
  let rec scan = function
    | Zero | One -> ()
    | Node { id; var; low; high } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        scan_var var;
        scan low;
        scan high
      end
  in
  List.iter scan roots;
  let nvars = !maxvar + 1 in
  if nvars <= 0 then roots
  else begin
    (* Scratch graph export. *)
    let s =
      {
        s_var = Array.make 1024 0;
        s_low = Array.make 1024 0;
        s_high = Array.make 1024 0;
        s_refs = Array.make 1024 0;
        s_n = 2;
        s_tab = Array.init nvars (fun _ -> Hashtbl.create 64);
        s_cnt = Array.make nvars 0;
        s_total = 0;
        s_lvl =
          Array.init nvars (fun v ->
              if v < Array.length m.level_of then m.level_of.(v) else v);
        s_vat =
          Array.init nvars (fun l ->
              if l < Array.length m.var_at then m.var_at.(l) else l);
      }
    in
    let export = Hashtbl.create 1024 in
    let rec exp = function
      | Zero -> 0
      | One -> 1
      | Node { id; var; low; high } ->
        (match Hashtbl.find_opt export id with
         | Some i -> i
         | None ->
           let l = exp low in
           let h = exp high in
           let i = s_mk s var l h in
           Hashtbl.add export id i;
           i)
    in
    let root_indices = List.map (fun r -> let i = exp r in s_incref s i; i) roots in
    (* Group construction: supplied groups (validated to be
       level-contiguous in the given order) plus singletons, ordered by
       current level; pinned levels are excluded from sifting. *)
    let in_group = Array.make nvars false in
    let group_list = ref [] in
    List.iter
      (fun g ->
         match g with
         | [] -> ()
         | first :: rest ->
           let ok =
             fst
               (List.fold_left
                  (fun (ok, prev) v ->
                     (ok && s.s_lvl.(v) = prev + 1, s.s_lvl.(v)))
                  (true, s.s_lvl.(first))
                  rest)
           in
           if not ok then
             invalid_arg "Bdd.reorder: group is not level-contiguous";
           List.iter (fun v -> in_group.(v) <- true) g;
           if s.s_lvl.(first) >= pinned then
             group_list := Array.of_list g :: !group_list)
      groups;
    for v = 0 to nvars - 1 do
      if (not in_group.(v)) && s.s_lvl.(v) >= pinned then
        group_list := [| v |] :: !group_list
    done;
    let seq =
      Array.of_list
        (List.sort
           (fun a b -> compare s.s_lvl.(a.(0)) s.s_lvl.(b.(0)))
           !group_list)
    in
    (* Sift candidates: heaviest groups first. *)
    let weight g = Array.fold_left (fun acc v -> acc + s.s_cnt.(v)) 0 g in
    let sifted =
      List.filter (fun g -> weight g > 0) (Array.to_list seq)
    in
    let sifted =
      List.sort (fun a b -> compare (weight b) (weight a)) sifted
    in
    let sifted = List.filteri (fun i _ -> i < candidates) sifted in
    List.iter
      (fun g ->
         (* The group's position may have shifted since the last sift. *)
         let pos = ref (-1) in
         Array.iteri (fun i g' -> if g' == g then pos := i) seq;
         if !pos >= 0 then sift_group s seq !pos)
      sifted;
    (* Install the final order. *)
    m.level_of <- Array.copy s.s_lvl;
    m.var_at <- Array.copy s.s_vat;
    (* Import bottom-up into a fresh unique table (this also collects
       garbage: only live nodes survive). *)
    Hashtbl.reset m.unique;
    clear_caches m;
    let live = ref [] in
    for i = 2 to s.s_n - 1 do
      if s.s_refs.(i) > 0 then live := i :: !live
    done;
    let live =
      List.sort
        (fun a b -> compare s.s_lvl.(s.s_var.(b)) s.s_lvl.(s.s_var.(a)))
        !live
    in
    let imported = Array.make s.s_n Zero in
    imported.(1) <- One;
    List.iter
      (fun i ->
         imported.(i) <-
           mk m s.s_var.(i) imported.(s.s_low.(i)) imported.(s.s_high.(i)))
      live;
    m.reorders <- m.reorders + 1;
    incr reorders_total;
    (match m.reorder_threshold with
     | Some threshold ->
       m.reorder_threshold <-
         Some (max threshold (2 * Hashtbl.length m.unique))
     | None -> ());
    List.map (fun i -> imported.(i)) root_indices
  end
