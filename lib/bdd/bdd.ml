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

type counters = {
  nodes : int;      (* nodes ever hash-consed *)
  op_hits : int;    (* computed-table hits (ite, quantification,
                        relational product) *)
  op_misses : int;  (* computed-table misses *)
  reorders : int;   (* always 0: the variable order is fixed *)
}

let counters () =
  {
    nodes = !created_total;
    op_hits = !op_hits_total;
    op_misses = !op_misses_total;
    reorders = 0;
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
     (no boxed tuple, no [Some]).  The tables start at 256 entries and
     double with the node count (see [grow_ct]): most solves create a
     few hundred nodes, and a fresh manager should not cost them more
     than that. *)
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
  mutable budget : Speccc_runtime.Budget.t option;
}

let ct_bits_initial = 8
let ct_bits_max = 19

(* Tables of [size] entries double when the next node id reaches
   [ct_grow_factor * size], until they have [2^ct_bits_max] entries. *)
let ct_grow_factor = 4

let manager () =
  let size = 1 lsl ct_bits_initial in
  {
    next_id = 2;
    unique = Hashtbl.create 4096;
    ct_f = Array.make size (-1);
    ct_g = Array.make size (-1);
    ct_h = Array.make size (-1);
    ct_r = Array.make size Zero;
    ct_mask = size - 1;
    ct_grow_at = ct_grow_factor * size;
    qt_node = Array.make size (-1);
    qt_key = Array.make size (-1);
    qt_r = Array.make size Zero;
    qt_mask = size - 1;
    quant_vars = [];
    quant_key = -1;
    quant_keys = Hashtbl.create 64;
    next_quant_key = 0;
    budget = None;
  }

let set_budget m budget = m.budget <- budget

let node_count m = Hashtbl.length m.unique

let zero _ = Zero
let one _ = One

(* Packing limits for the unique-table key: variable in 12 bits, node
   ids in 25 bits each (33M nodes — far beyond what the memory
   watermarks allow to materialize). *)
let max_var = 1 lsl 12
let max_nodes = 1 lsl 25

let pack v l h = (v lsl 50) lor (l lsl 25) lor h

(* Doubling drops every cached entry: the tables are lossy, so that
   costs recomputation, never a wrong answer.  An operation that is
   mid-recursion when [mk] grows the tables recomputes its slot before
   storing. *)
let grow_ct m =
  let size = 2 * (m.ct_mask + 1) in
  m.ct_f <- Array.make size (-1);
  m.ct_g <- Array.make size (-1);
  m.ct_h <- Array.make size (-1);
  m.ct_r <- Array.make size Zero;
  m.ct_mask <- size - 1;
  m.qt_node <- Array.make size (-1);
  m.qt_key <- Array.make size (-1);
  m.qt_r <- Array.make size Zero;
  m.qt_mask <- size - 1;
  m.ct_grow_at <-
    (if size >= 1 lsl ct_bits_max then max_int else ct_grow_factor * size)

(* Every BDD operation (ite, quantification, composition) funnels
   through [mk], so charging fuel here governs them all: work between
   two [mk] calls is bounded by the operation caches. *)
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
      (* Split on the variable closest to the root. *)
      let tv d = match d with Node { var; _ } -> var | _ -> max_int in
      let v = min (tv f) (min (tv g) (tv h)) in
      let f0, f1 = cofactors v f in
      let g0, g1 = cofactors v g in
      let h0, h1 = cofactors v h in
      let low = ite m f0 g0 h0 in
      let high = ite m f1 g1 h1 in
      let result = mk m v low high in
      (* [mk] may have grown the table: recompute the slot. *)
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

let and_list m fs = List.fold_left (and_ m) One fs

(* Quantification over a variable list (processed root-most first).
   The computed table is keyed by a stable token per variable set, so
   alternating between the same few sets — as the bucket eliminator in
   the synthesis engine does every round — keeps hitting cached entries
   instead of resetting.  [set_quant_vars] returns the set sorted and
   deduplicated and makes [m.quant_key] its token. *)
let set_quant_vars m vars =
  let vars = List.sort_uniq compare vars in
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

let qt_slot m id tag = ((id * 0x9E3779B1) lxor (tag * 0x85EBCA77)) land m.qt_mask

(* [remaining] is the sorted variable set still ahead of [f]'s root;
   [tag] keys the cache by the whole set and the quantifier, so entries
   hold for every suffix. *)
let rec quantify_from m ~is_forall tag remaining f =
  match f, remaining with
  | (Zero | One), _ -> f
  | _, [] -> f
  | Node { id; var; low; high; _ }, v :: rest ->
    if var > v then quantify_from m ~is_forall tag rest f
    else begin
      let idx = qt_slot m id tag in
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
        let idx = qt_slot m id tag in
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

(* The suffix of a sorted variable list from variable [l] down. *)
let rec drop_above l = function
  | v :: rest when v < l -> drop_above l rest
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
        let v = min a.var b.var in
        match drop_above v remaining with
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
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) assignment
  in
  let rec go remaining f =
    match f, remaining with
    | (Zero | One), _ -> f
    | _, [] -> f
    | Node { var; low; high; _ }, (v, value) :: rest ->
      if var > v then go rest f
      else if var = v then go rest (if value then high else low)
      else mk m var (go remaining low) (go remaining high)
  in
  go assignment f

let rec compose m v g f =
  match f with
  | Zero | One -> f
  | Node { var; low; high; _ } ->
    if var > v then f
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
  let mapping = List.sort (fun (a, _) (b, _) -> compare a b) mapping in
  let rec check_monotone = function
    | [] | [ _ ] -> ()
    | (_, dst1) :: (((_, dst2) :: _) as rest) ->
      if dst1 >= dst2 then
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

let support f =
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
  Int_set.elements !vars

(* [count d] = number of models of [d] over the variables below [d]'s
   root; models over all [nvars] variables are then obtained by scaling
   for the variables above the root. *)
let sat_count f ~nvars =
  let cache = Hashtbl.create 64 in
  let pow2 k = 2.0 ** float_of_int k in
  let lvl = function Zero | One -> nvars | Node { var; _ } -> var in
  let rec count = function
    | Zero -> 0.0
    | One -> 1.0
    | Node { id; var; low; high } ->
      (match Hashtbl.find_opt cache id with
       | Some n -> n
       | None ->
         let n =
           (count low *. pow2 (lvl low - var - 1))
           +. (count high *. pow2 (lvl high - var - 1))
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
