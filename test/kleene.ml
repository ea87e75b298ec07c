(* The reference for [Engine.Absint.run]: the synchronous Kleene
   iteration it replaced.

   Flops start at their reset values and every primary input is x.
   Each step evaluates every combinational cell in topological order
   from the current state, then joins every flop's next value into its
   state, all flops at once; it stops when no state changes.  That is
   one full sweep per register-depth step, so a long shift register
   costs time quadratic in its length: a test artifact only.  The
   result is one ternary value per net. *)

module D = Netlist.Design
module T = Engine.Ternary

let values d =
  let sched = Netlist.Topo.schedule d in
  let v = Array.make (D.num_nets d) T.x in
  v.(D.net_false) <- 0;
  v.(D.net_true) <- 1;
  let flops = Array.map (D.cell d) sched.Netlist.Topo.flops in
  Array.iter (fun c -> v.(c.D.out) <- Bool.to_int c.D.init) flops;
  let rec step () =
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        v.(c.D.out) <- T.eval_cell c.D.kind (Array.map (Array.get v) c.D.ins))
      sched.Netlist.Topo.order;
    let next = Array.map (fun c -> T.join v.(c.D.out) v.(c.D.ins.(0))) flops in
    let changed = ref false in
    Array.iteri
      (fun i c ->
        if next.(i) <> v.(c.D.out) then begin
          v.(c.D.out) <- next.(i);
          changed := true
        end)
      flops;
    if !changed then step ()
  in
  step ();
  v

(* the first net on which [Engine.Absint.run] and [values] disagree, as
   [(net, absint, reference)] *)
let first_mismatch d =
  let ai = Engine.Absint.run d in
  let reference = values d in
  let rec go n =
    if n = Array.length reference then None
    else if Engine.Absint.value ai n <> reference.(n) then
      Some (n, Engine.Absint.value ai n, reference.(n))
    else go (n + 1)
  in
  go 0
