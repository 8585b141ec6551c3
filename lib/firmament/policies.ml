let all : (string * Policy.factory) list =
  [
    ("quincy", fun ~drain net st -> Policy_quincy.make ~drain net st);
    ("load-spread", fun ~drain net st -> Policy_load_spread.make ~drain net st);
    ("network-aware", fun ~drain net st -> Policy_network_aware.make ~drain net st);
  ]
