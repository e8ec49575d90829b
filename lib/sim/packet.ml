type t = {
  flow : int;
  seq : int;
  size : int;
  sent_at : float;
  delivered_at_send : int;
  app_limited : bool;
  mutable ce : bool;
}

type delivery = { packet : t; delivered_at : float }

let dummy =
  {
    flow = -2;
    seq = -1;
    size = 0;
    sent_at = neg_infinity;
    delivered_at_send = 0;
    app_limited = false;
    ce = false;
  }
