module D = Netlist.Design
module C = Netlist.Cell

type t = {
  design : D.t;
  sched : Netlist.Topo.schedule;
  values : int array;  (* post-fixpoint values conditioned on assume *)
  iterations : int;
  contradiction : bool;
  is_input : bool array;
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

(* Refine [v] in place under [assume = 1], alternating a backward
   (reverse-topological) and a forward (meet with re-evaluation) sweep
   until nothing changes.  Each sweep only moves values down the
   x -> {0,1} lattice, so termination is by net count; the pass bound
   is just a safety valve.
   @raise Contradiction when the assumption is unsatisfiable in the
   cube. *)
let condition d sched (v : int array) assume =
  v.(assume) <- meet v.(assume) 1;
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
    match condition d sched v assume with
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
      (match condition d sched v assume with
      | exception Contradiction -> contradiction := true
      | () -> ());
      if !contradiction then Array.make n_nets Ternary.x else v
    end
  in
  {
    design = d;
    sched;
    values;
    iterations = !iterations;
    contradiction = !contradiction;
    is_input;
  }

let iterations t = t.iterations
let contradiction t = t.contradiction
let value t n = t.values.(n)

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
