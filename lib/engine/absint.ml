module D = Netlist.Design
module C = Netlist.Cell

type word_fact = {
  w_base : string;
  w_width : int;
  w_known_mask : int64;
  w_known_value : int64;
  w_lo : int64;
  w_hi : int64;
}

type t = {
  design : D.t;
  sched : Netlist.Topo.schedule;
  values : int array;  (* post-fixpoint values conditioned on assume *)
  assume : D.net;
  iterations : int;
  contradiction : bool;
  is_input : bool array;
  digest : string;
}

exception Contradiction

let meet a b =
  if a = Ternary.x then b
  else if b = Ternary.x then a
  else if a = b then a
  else raise Contradiction

(* Backward transfer for one cell: the output is required to be
   [v_out]; enumerate every completion of the unknown inputs (at most
   2^4) and force any input on which all surviving completions agree.
   Treating the inputs as independent coordinates over-approximates
   the satisfying set when one net feeds two pins, which only loses
   precision, never soundness. *)
let backward_cell kind v_out ins_vals =
  let n = Array.length ins_vals in
  let unknown = ref [] in
  for i = n - 1 downto 0 do
    if ins_vals.(i) = Ternary.x then unknown := i :: !unknown
  done;
  match !unknown with
  | [] ->
      if Ternary.eval_cell kind ins_vals <> v_out then raise Contradiction;
      ins_vals
  | us ->
      let unknown = Array.of_list us in
      let k = Array.length unknown in
      let seen0 = Array.make k false and seen1 = Array.make k false in
      let any = ref false in
      let trial = Array.copy ins_vals in
      for m = 0 to (1 lsl k) - 1 do
        for j = 0 to k - 1 do
          trial.(unknown.(j)) <- (m lsr j) land 1
        done;
        if Ternary.eval_cell kind trial = v_out then begin
          any := true;
          for j = 0 to k - 1 do
            if (m lsr j) land 1 = 1 then seen1.(j) <- true
            else seen0.(j) <- true
          done
        end
      done;
      if not !any then raise Contradiction;
      let out = Array.copy ins_vals in
      for j = 0 to k - 1 do
        if not (seen0.(j) && seen1.(j)) then
          out.(unknown.(j)) <- (if seen1.(j) then 1 else 0)
      done;
      out

(* Refine [v] in place under equality constraints, alternating a
   backward (reverse-topological) and a forward (meet with re-
   evaluation) sweep until nothing changes.  Each sweep only moves
   values down the x -> {0,1} lattice, so termination is by net count;
   the pass bound is just a safety valve.
   @raise Contradiction when the constraint set is unsatisfiable in
   the cube. *)
let condition d sched (v : int array) constraints =
  List.iter
    (fun (n, b) -> v.(n) <- meet v.(n) (Bool.to_int b))
    constraints;
  let order = sched.Netlist.Topo.order in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    for i = Array.length order - 1 downto 0 do
      let c = D.cell d order.(i) in
      if v.(c.D.out) <> Ternary.x then begin
        let ins_vals = Array.map (fun n -> v.(n)) c.D.ins in
        let refined = backward_cell c.D.kind v.(c.D.out) ins_vals in
        Array.iteri
          (fun j n ->
            let m = meet v.(n) refined.(j) in
            if m <> v.(n) then begin
              v.(n) <- m;
              changed := true
            end)
          c.D.ins
      end
    done;
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        let out' =
          Ternary.eval_cell c.D.kind (Array.map (fun n -> v.(n)) c.D.ins)
        in
        let m = meet v.(c.D.out) out' in
        if m <> v.(c.D.out) then begin
          v.(c.D.out) <- m;
          changed := true
        end)
      order
  done

let run ?(classify = fun _ -> Ternary.Free) ?max_iterations ~assume d =
  Obs.add_int "absint.runs" 1;
  let sched = Netlist.Topo.schedule d in
  let n_nets = D.num_nets d in
  let flops = sched.Netlist.Topo.flops in
  let is_input = Array.make n_nets false in
  List.iter (fun (_, n) -> is_input.(n) <- true) (D.inputs d);
  (* register-state lattice, seeded from the reset values *)
  let state = Array.make n_nets Ternary.x in
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      state.(c.D.out) <- Bool.to_int c.D.init)
    flops;
  let eval_from_state () =
    let v = Array.make n_nets Ternary.x in
    v.(D.net_false) <- 0;
    v.(D.net_true) <- 1;
    List.iter
      (fun (_, n) ->
        v.(n) <-
          (match classify n with
          | Ternary.Zero -> 0
          | Ternary.One -> 1
          | Ternary.Free -> Ternary.x))
      (D.inputs d);
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        v.(c.D.out) <- state.(c.D.out))
      flops;
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        v.(c.D.out) <-
          Ternary.eval_cell c.D.kind (Array.map (fun n -> v.(n)) c.D.ins))
      sched.Netlist.Topo.order;
    v
  in
  let limit =
    match max_iterations with
    | Some m -> m
    | None -> (2 * Array.length flops) + 8
  in
  let contradiction = ref false in
  let iterations = ref 0 in
  (* Per-bit state lattices have height 2 and the join is monotone, so
     this terminates well inside [limit]; conditioning on the
     assumption happens before each transition so the cube tracks only
     states reachable while the assumption holds at every cycle. *)
  let rec fixpoint i =
    if i > limit then failwith "Absint.run: no convergence";
    iterations := i;
    let v = eval_from_state () in
    match condition d sched v [ (assume, true) ] with
    | exception Contradiction -> contradiction := true
    | () ->
        let changed = ref false in
        Array.iter
          (fun ci ->
            let c = D.cell d ci in
            let next = Ternary.join state.(c.D.out) v.(c.D.ins.(0)) in
            if next <> state.(c.D.out) then begin
              state.(c.D.out) <- next;
              changed := true
            end)
          flops;
        if !changed then fixpoint (i + 1)
  in
  fixpoint 1;
  let values =
    if !contradiction then Array.make n_nets Ternary.x
    else begin
      let v = eval_from_state () in
      (match condition d sched v [ (assume, true) ] with
      | exception Contradiction -> contradiction := true
      | () -> ());
      if !contradiction then Array.make n_nets Ternary.x else v
    end
  in
  let digest =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "pdat-absint-v1\n";
    Buffer.add_string buf (if !contradiction then "contradiction\n" else "ok\n");
    Array.iteri
      (fun n v ->
        if v <> Ternary.x then begin
          Buffer.add_string buf (string_of_int n);
          Buffer.add_char buf '=';
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf '\n'
        end)
      values;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  {
    design = d;
    sched;
    values;
    assume;
    iterations = !iterations;
    contradiction = !contradiction;
    is_input;
    digest;
  }

let iterations t = t.iterations
let contradiction t = t.contradiction
let value t n = t.values.(n)
let facts_digest t = t.digest

let constants t =
  if t.contradiction then []
  else begin
    let out = ref [] in
    for n = Array.length t.values - 1 downto 2 do
      if (not t.is_input.(n)) && t.values.(n) <> Ternary.x then
        out := Candidate.Const (n, t.values.(n) = 1) :: !out
    done;
    !out
  end

let facts = constants
let n_facts t = List.length (constants t)

let proves t cand =
  if t.contradiction then false
  else
    match cand with
    | Candidate.Const (n, b) -> t.values.(n) = Bool.to_int b
    | Candidate.Implies { a; b; _ } ->
        t.values.(a) = 0 || t.values.(b) = 1
        (* with a constant-1 antecedent, conditioning on it is a no-op
           and the direct lookup above was already the full answer *)
        || t.values.(a) <> 1
           && begin
             (* condition the post-fixpoint cube on the antecedent: a
                contradiction means the antecedent never fires in an
                assumed reachable state, which proves the implication
                vacuously *)
             let v = Array.copy t.values in
             match condition t.design t.sched v [ (a, true) ] with
             | exception Contradiction -> true
             | () -> v.(b) = 1
           end

let word_facts t =
  if t.contradiction then []
  else begin
    let d = t.design in
    let n_nets = D.num_nets d in
    let groups : (string, (int * D.net) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let add name net =
      match String.index_opt name '[' with
      | None -> ()
      | Some l ->
          let len = String.length name in
          if len > l + 1 && name.[len - 1] = ']' then
            match int_of_string_opt (String.sub name (l + 1) (len - l - 2)) with
            | Some i when i >= 0 ->
                let base = String.sub name 0 l in
                let cell =
                  match Hashtbl.find_opt groups base with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.add groups base r;
                      r
                in
                cell := (i, net) :: !cell
            | _ -> ()
    in
    List.iter (fun (nm, n) -> add nm n) (D.inputs d);
    List.iter (fun (nm, n) -> add nm n) (D.outputs d);
    for n = 0 to n_nets - 1 do
      if not t.is_input.(n) then add (D.net_name d n) n
    done;
    let out = ref [] in
    Hashtbl.iter
      (fun base bits ->
        let width =
          List.fold_left (fun acc (i, _) -> max acc (i + 1)) 0 !bits
        in
        if width >= 1 && width <= 63 then begin
          let known_mask = ref 0L and known_value = ref 0L in
          List.iter
            (fun (i, n) ->
              let v = t.values.(n) in
              if v <> Ternary.x then begin
                known_mask := Int64.logor !known_mask (Int64.shift_left 1L i);
                if v = 1 then
                  known_value :=
                    Int64.logor !known_value (Int64.shift_left 1L i)
              end)
            !bits;
          let all = Int64.sub (Int64.shift_left 1L width) 1L in
          let unknown = Int64.logand all (Int64.lognot !known_mask) in
          out :=
            {
              w_base = base;
              w_width = width;
              w_known_mask = !known_mask;
              w_known_value = !known_value;
              w_lo = !known_value;
              w_hi = Int64.logor !known_value unknown;
            }
            :: !out
        end)
      groups;
    List.sort (fun a b -> compare a.w_base b.w_base) !out
  end

let stuck_registers t =
  if t.contradiction then []
  else begin
    let d = t.design in
    let out = ref [] in
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        if t.values.(c.D.out) <> Ternary.x then
          out := (ci, t.values.(c.D.out) = 1) :: !out)
      t.sched.Netlist.Topo.flops;
    List.rev !out
  end

let dead_writes t =
  if t.contradiction then []
  else begin
    let d = t.design in
    let out = ref [] in
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        match D.driver d c.D.ins.(0) with
        | Some mi -> (
            let m = D.cell d mi in
            match m.D.kind with
            | C.Mux2 when t.values.(m.D.ins.(0)) <> Ternary.x ->
                out := (ci, t.values.(m.D.ins.(0)) = 1) :: !out
            | _ -> ())
        | None -> ())
      t.sched.Netlist.Topo.flops;
    List.rev !out
  end
