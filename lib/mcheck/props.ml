module Sd = Abp_deque.Step_deque

let aba_scenario =
  {
    Explorer.owner = [ Sd.Push_bottom 1; Sd.Pop_bottom; Sd.Push_bottom 2; Sd.Pop_bottom ];
    thieves = [ [ Sd.Pop_top ] ];
  }

let wraparound_scenario =
  {
    Explorer.owner =
      [
        Sd.Push_bottom 1;
        Sd.Pop_bottom;
        Sd.Push_bottom 2;
        Sd.Pop_bottom;
        Sd.Push_bottom 3;
        Sd.Pop_bottom;
      ];
    thieves = [ [ Sd.Pop_top ] ];
  }

let two_thieves =
  {
    Explorer.owner = [ Sd.Push_bottom 1; Sd.Push_bottom 2; Sd.Push_bottom 3 ];
    thieves = [ [ Sd.Pop_top ]; [ Sd.Pop_top ] ];
  }

let owner_vs_thief_interleave =
  {
    Explorer.owner = [ Sd.Push_bottom 1; Sd.Pop_bottom; Sd.Push_bottom 2; Sd.Pop_bottom ];
    thieves = [ [ Sd.Pop_top; Sd.Pop_top ] ];
  }

module Ws = Abp_deque.Wsm_step

(* The wsm backend's owner/thief race around the unfenced cursor reads:
   the owner publishes, drains and republishes (exercising the pop_bottom
   reclaim path and the board top-up) while two thieves race the same
   published window — the interleavings where both thieves read the same
   [con] and both blindly store [con + 1] are exactly where multiplicity
   appears, and {!Wsm_explorer} verifies nothing worse does. *)
let wsm_thief =
  {
    Wsm_explorer.owner =
      [ Ws.Push_bottom 1; Ws.Push_bottom 2; Ws.Pop_bottom; Ws.Push_bottom 3; Ws.Pop_bottom ];
    thieves = [ [ Ws.Pop_top; Ws.Pop_top ]; [ Ws.Pop_top ] ];
  }

(* Board-slot reuse: five pushes against a drain-happy owner wrap the
   model's 4-slot publication ring, so a thief's in-flight invocation
   can straddle a slot's overwrite — the stale-read scenario the
   publish-requires-drained rule makes safe. *)
let wsm_reuse =
  {
    Wsm_explorer.owner =
      [
        Ws.Push_bottom 1;
        Ws.Pop_bottom;
        Ws.Push_bottom 2;
        Ws.Pop_bottom;
        Ws.Push_bottom 3;
        Ws.Pop_bottom;
        Ws.Push_bottom 4;
        Ws.Pop_bottom;
        Ws.Push_bottom 5;
        Ws.Pop_bottom;
      ];
    thieves = [ [ Ws.Pop_top ] ];
  }

let random_program ~rng ~ops ~thieves =
  if ops < 0 || thieves < 0 then invalid_arg "Props.random_program";
  let next_val = ref 0 in
  let owner =
    List.init ops (fun _ ->
        if rng 2 = 0 then begin
          incr next_val;
          Sd.Push_bottom !next_val
        end
        else Sd.Pop_bottom)
  in
  { Explorer.owner; thieves = List.init thieves (fun _ -> [ Sd.Pop_top ]) }
