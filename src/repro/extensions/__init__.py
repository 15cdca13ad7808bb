"""Extensions: the paper's Section 6 future-work directions plus ablations.

Three strategy variants, registered in :mod:`repro.experiments.runner`
under the spec named (so ``repro run``, matrices and the invariant
checker reach them like any stock strategy):

* :mod:`repro.extensions.relay_control` — bounded relay population
  (direction 2), ``rpcc-controlled-<level>``;
* :mod:`repro.extensions.selection_ablation` — random promotion instead of
  the CAR/CS/CE criterion, ``rpcc-random-selection-<level>``;
* :mod:`repro.extensions.uir_push` — Cao'00-style updated invalidation
  reports between IRs (cited in the paper's related work), ``push-uir``;

and one self-contained protocol that is not a consistency strategy:

* :mod:`repro.extensions.replica` — multi-writer replica consistency via
  LWW anti-entropy gossip (direction 3).

Direction 1, adapting the push/pull frequency at run time, is
:mod:`repro.control`.
"""

from repro.extensions.relay_control import ControlledRPCCAgent, ControlledRPCCStrategy
from repro.extensions.replica import (
    GossipReplication,
    ReplicatedRegister,
    WriteTag,
)
from repro.extensions.selection_ablation import RandomSelectionRPCCStrategy
from repro.extensions.uir_push import UIRPushAgent, UIRPushStrategy, UIRReport

__all__ = [
    "ControlledRPCCStrategy",
    "ControlledRPCCAgent",
    "GossipReplication",
    "ReplicatedRegister",
    "WriteTag",
    "RandomSelectionRPCCStrategy",
    "UIRPushStrategy",
    "UIRPushAgent",
    "UIRReport",
]
