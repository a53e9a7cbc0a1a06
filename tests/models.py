"""Model configs shared by the test modules, as parse_env_config takes them."""
from bpre.env import parse_env_config

# the README model: offspring {1, 2}, two equally likely states
BINARY = {"model": "binary",
          "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5}]}
DOUBLING = {"model": "generic",
            "states": [{"label": "double", "mass": 1.0, "offspring": {"2": 1.0}}]}
# the benchmark's generic model: offspring {1,2,3}, two chain links per pass
GENERIC = {"model": "generic",
           "states": [{"label": "low", "mass": 0.5,
                       "offspring": {"1": 0.5, "2": 0.3, "3": 0.2}},
                      {"label": "high", "mass": 0.5,
                       "offspring": {"1": 0.2, "2": 0.3, "3": 0.5}}]}
# a {1,2} state, a deterministic {2} state and a {1,2,3} chain state: chains
# of one, zero and two links
MIXED = {"model": "generic",
         "states": [{"label": "bin", "mass": 0.4, "offspring": {"1": 0.6, "2": 0.4}},
                    {"label": "double", "mass": 0.3, "offspring": {"2": 1.0}},
                    {"label": "chain", "mass": 0.3,
                     "offspring": {"1": 0.3, "2": 0.5, "3": 0.2}}]}


def binary_env():
    return parse_env_config(BINARY)
