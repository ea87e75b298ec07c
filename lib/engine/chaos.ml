(* Spec parsing is deliberately re-done at each injection point: the
   chaos matrix flips PDAT_CHAOS between scenarios with [putenv]. *)

let specs () =
  match Sys.getenv_opt "PDAT_CHAOS" with
  | None | Some "" -> []
  | Some s ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")

(* One-shots are process-local. *)
let spent_cache_trunc = ref false
let spent_sigterm = ref false

let reset () =
  spent_cache_trunc := false;
  spent_sigterm := false

let cache_truncate ~path =
  if !spent_cache_trunc || not (List.mem "cache-trunc" (specs ())) then false
  else begin
    spent_cache_trunc := true;
    match Unix.stat path with
    | { Unix.st_size; _ } when st_size > 1 ->
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.ftruncate fd (st_size / 2));
        Obs.add_int "chaos.cache_truncations" 1;
        true
    | _ | (exception Unix.Unix_error _) -> false
  end

let stage_sigterm stage =
  if
    (not !spent_sigterm)
    && List.mem ("sigterm:" ^ stage) (specs ())
  then begin
    spent_sigterm := true;
    Obs.add_int "chaos.sigterms" 1;
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    (* the default disposition kills us before returning; if a test
       installed a handler we just fall through *)
    ()
  end
