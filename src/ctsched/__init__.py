"""Schedule synthesis for continuous-time MDPs against omega-regular
objectives: model-free Q-learning plus an exact uniformization-based checker.
"""

from .automata import BuchiAutomaton, step
from .check import (BlackwellReport, CheckResult, RewardSpec, average_optimal,
                    average_value, blackwell_probe, discounted_optimal,
                    discounted_value, esem_of, esem_optimal, psem_of,
                    psem_optimal)
from .formats import (HoaSource, ModelSource, emit_hoa, emit_result_table,
                      parse_hoa, parse_model, serialize_model)
from .learn import (EXP_GAMMA, SAT_GAMMA, Hyperparams, LearnResult, QTable,
                    learn_exp, learn_sat)
from .model import (Ctmdp, CtmdpError, Mec, MecSet, embed, mec_decompose,
                    uniformize, validate)
from .product import (OnTheFlyProductEnv, ProductCtmdp, Schedule, augment,
                      build_product, project_schedule, schedule_from_ids,
                      schedule_to_ids)
from .simulate import RngHandle, sample_transition

__version__ = "0.1.0"
