(* A reasoned allow that covers no finding is stale: the code it once
   excused is gone, so the allow is reported (SUPPRESS) instead of
   silently widening the budget of written-down exceptions. *)

(* placer-lint: allow D1 nothing below reads a clock, so this allow is stale *)
let add a b = a + b
