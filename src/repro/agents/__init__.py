"""Multi-agent finite-state-machine orchestration (paper Section 2.2).

Three agents take turns: a *user proxy* that opens the conversation with
the scalar code plus the compiler's dependence analysis
(:meth:`UserProxyAgent.opening_prompt`), a *vectorizer assistant* that
consults the LLM (:meth:`VectorizerAgent.propose` and ``repair``), and a
*compiler tester assistant* that runs checksum-based testing and answers
with a :class:`TesterReply` whose feedback drives the next repair.  The FSM
bounds the conversation at ten attempts and terminates as soon as a
plausible candidate is found, which is how the paper reduces the number of
LLM invocations.
"""

from repro.agents.fsm import FSMConfig, FSMResult, VectorizationFSM
from repro.agents.tester_agent import CompilerTesterAgent, TesterReply
from repro.agents.user_proxy import UserProxyAgent
from repro.agents.vectorizer_agent import VectorizerAgent

__all__ = [
    "FSMConfig",
    "FSMResult",
    "VectorizationFSM",
    "CompilerTesterAgent",
    "TesterReply",
    "UserProxyAgent",
    "VectorizerAgent",
]
