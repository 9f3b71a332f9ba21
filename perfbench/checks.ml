(* The benchmark's output checks, as pure comparators over the values the
   workloads observe.  The workloads call exactly these functions, and
   test_checks.ml feeds each one doctored input (a flipped MUT bit, a
   dropped frame, an off-by-one reverse target) to show it can fail. *)

open Zoomie.Zoomie_api

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* farm_debug: a Read_registers response names exactly the registers the
   request asked for, once each. *)
let names_match ~asked ~(got : (string * Rtl.Bits.t) list) =
  let want = List.sort_uniq compare asked in
  let have = List.sort compare (List.map fst got) in
  if want = have then Ok ()
  else
    errorf "asked for [%s], response named [%s]" (String.concat " " want)
      (String.concat " " have)

(* Two MUT states (as read back) are equal register by register. *)
let same_state ~what ~expected ~got =
  match Debug.Host.diff_states expected got with
  | [] -> Ok ()
  | diffs ->
    let show = function
      | None -> "absent"
      | Some b -> Rtl.Bits.to_string b
    in
    errorf "%s: %d register(s) differ, first %s" what (List.length diffs)
      (match diffs with
      | (n, a, b) :: _ -> Printf.sprintf "%s: expected %s, got %s" n (show a) (show b)
      | [] -> "")

(* farm_debug: steps commute in count.  [board_cycles] are the boards'
   MUT cycle counters at the end; [sessions] pairs each session's final
   [cycles] reply with the MUT cycles it stepped.  Every reply must be
   some board's count, and the sessions reporting a count must have
   stepped exactly that many cycles per board holding it. *)
let cycles_account ~board_cycles ~sessions =
  let boards_with c = List.length (List.filter (( = ) c) board_cycles) in
  match List.find_opt (fun (c, _) -> boards_with c = 0) sessions with
  | Some (c, _) ->
    errorf "a session reports %d MUT cycles; the boards hold [%s]" c
      (String.concat " " (List.map string_of_int board_cycles))
  | None ->
    let values = List.sort_uniq compare board_cycles in
    let bad =
      List.find_opt
        (fun c ->
          let stepped =
            List.fold_left
              (fun acc (c', s) -> if c' = c then acc + s else acc)
              0 sessions
          in
          stepped <> c * boards_with c)
        values
    in
    (match bad with
    | None -> Ok ()
    | Some c ->
      errorf "sessions on the board(s) at %d MUT cycles stepped a different total" c)

(* vti_edit_loop: the incremental engine's build equals the reference
   engine's, artifact by artifact. *)
let same_build (b : Vti.Flow.build) (o : Vti.Flow_baseline.build) =
  let fields =
    [
      ("netlist", b.Vti.Flow.netlist = o.Vti.Flow_baseline.netlist);
      ("locmap", b.Vti.Flow.locmap = o.Vti.Flow_baseline.locmap);
      ("route", b.Vti.Flow.route = o.Vti.Flow_baseline.route);
      ("timing", b.Vti.Flow.timing = o.Vti.Flow_baseline.timing);
      ("frames", b.Vti.Flow.frames = o.Vti.Flow_baseline.frames);
      ("bitstream", b.Vti.Flow.bitstream = o.Vti.Flow_baseline.bitstream);
      ( "modeled_seconds",
        b.Vti.Flow.modeled_seconds = o.Vti.Flow_baseline.modeled_seconds );
    ]
  in
  match List.filter (fun (_, ok) -> not ok) fields with
  | [] -> Ok ()
  | bad ->
    errorf "incremental build differs from the reference engine in: %s"
      (String.concat ", " (List.map fst bad))

(* vti_edit_loop: the registers an edit set read back with the values the
   edit put in its boot program. *)
let edit_visible ~expected ~(got : (string * int) list) =
  match
    List.find_opt
      (fun (reg, v) -> List.assoc_opt reg got <> Some v)
      expected
  with
  | None -> Ok ()
  | Some (reg, v) ->
    errorf "edit not visible: %s should read %d, read %s" reg v
      (match List.assoc_opt reg got with
      | Some x -> string_of_int x
      | None -> "nothing")

(* reverse_debug: a reverse-continue lands on its target cycle and says so. *)
let landed ~target ~mut_cycles ~response =
  let prefix = Printf.sprintf "reversed to mut cycle %d " target in
  if mut_cycles <> target then
    errorf "reverse-continue %d left the MUT at cycle %d" target mut_cycles
  else if not (String.starts_with ~prefix response) then
    errorf "reverse-continue %d answered %S" target response
  else Ok ()

(* reverse_debug: a saved recording re-drives on a fresh rig with no
   divergence and reproduces every entry. *)
let replay_clean ~entries ~(replayed : string list)
    (divergence : Debug.Timeline.divergence option) =
  match divergence with
  | Some d ->
    errorf "replay diverged at entry %d: expected %S, got %S"
      d.Debug.Timeline.div_index d.Debug.Timeline.div_expected
      d.Debug.Timeline.div_got
  | None when List.length replayed <> entries ->
    errorf "replay reproduced %d of %d entries" (List.length replayed) entries
  | None -> Ok ()
