"""Chat backend and chat-backed focal agents for orchard episodes.

`chat_oracle` answers two query kinds (pick a crop, say something in
discussion): it POSTs a chat-completions request to an HTTP endpoint and
parses a fenced-JSON reply. The API key comes from the NORMSIM_API_KEY
environment variable at call time and is sent only in the Authorization
header; it never reaches a transcript, log, or episode dump. Offline runs
(`oracle.kind: "scripted"`) need no oracle: they use the `agents` policies.
`requests` is imported only inside `chat_oracle`, so they never load it.

The chat newcomer wraps the roster's agent: `ChatNormativeAgent` holds the
`NormativeAgent` that `agents.build_roster` built and adds only its words.
Both chat agents reach the model through one seam, `ask(req) -> OracleResponse`.

Prompt assembly is a pure function of the request, so goldens can pin it.
"""
from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass

from .agents import NormativeAgent, NormativeState
from .orchard import Criticism, Observation

API_KEY_VAR = "NORMSIM_API_KEY"
CHAT_ATTEMPTS = 3  # total tries; backoff 1s then 2s between them

ACTION_SELECTION = "action_selection"
DISCUSSION_UTTERANCE = "discussion_utterance"
QUERY_KINDS = (ACTION_SELECTION, DISCUSSION_UTTERANCE)


class OracleError(RuntimeError):
    """An oracle could not produce a usable response."""


@dataclass(frozen=True)
class AgentProfile:
    """Who is asking: enough persona to render prompts."""

    name: str
    kind: str  # "baseline" | "normative"

    def __post_init__(self):
        if self.kind not in ("baseline", "normative"):
            raise ValueError(f"unknown profile kind {self.kind!r}")


@dataclass(frozen=True)
class OracleRequest:
    """One query: what `profile` is asked about `observation`. Its prompt renders
    the observation with `render_context`, and an answer may choose among the
    observation's `crop_names`."""

    kind: str
    profile: AgentProfile
    observation: Observation

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")


@dataclass(frozen=True)
class OracleResponse:
    """The parsed answer; only the fields for the request's kind are set."""

    action: int | None = None
    utterance: str | None = None
    criticisms: tuple[Criticism, ...] = ()


# ---------------------------------------------------------------------------
# Prompt assembly (golden-tested)
# ---------------------------------------------------------------------------


def render_context(obs: Observation) -> str:
    """The observation as prompt text. Pure function of the observation."""
    names, crops = obs.agent_names, obs.crop_names
    sections = {
        "Institution signals:": [f"{sig.name}'s Message: {sig.text}" for sig in obs.signals],
        "Last step's harvests:": [f"{names[i]}: {crops[crop]}"
                                  for i, crop in enumerate(obs.last_step_actions)],
        "Criticisms heard last step:": [
            f"{names[c.sender]} criticized {names[c.target]} for harvesting "
            f"{crops[c.criticized_crop]}." for c in obs.last_step_criticisms],
        "Discussion so far this step:": [f'{names[entry.speaker]}: "{entry.text}"'
                                         for entry in obs.discussion_so_far],
    }
    lines = [f"Time step {obs.t}."]
    for title, entries in sections.items():
        lines.append(title)
        lines += [f"  {entry}" for entry in entries] or ["  (none)"]
    return "\n".join(lines)


def _role_line(profile: AgentProfile) -> str:
    if profile.kind == "baseline":
        return "You just arrived and want to fit in with your neighbors."
    return "You just arrived and are working out whose guidance the village follows."


def _instruction(req: OracleRequest) -> str:
    if req.kind == ACTION_SELECTION:
        crops = ", ".join(req.observation.crop_names)
        return (
            f"Choose one crop to harvest this step from: {crops}.\n"
            "Respond with a single fenced JSON object, exactly like:\n"
            '```json\n{"action": "apples"}\n```'
        )
    return (
        "Say one short message to the village. If any neighbor's last harvest "
        "deserves criticism, list it; otherwise leave the list empty.\n"
        "Respond with a single fenced JSON object, exactly like:\n"
        '```json\n{"utterance": "...", "criticisms": [{"target": "John", "crop": "apples"}]}\n```'
    )


def build_messages(req: OracleRequest) -> list[dict[str, str]]:
    """Chat-completion messages for the request. Pure function of the request."""
    crops = ", ".join(req.observation.crop_names)
    system = (
        f"You are {req.profile.name}, a villager of Skymeadow, a farming village "
        f"whose orchards grow {crops}. {_role_line(req.profile)} "
        "Remember to be a good citizen."
    )
    user = render_context(req.observation) + "\n\n" + _instruction(req)
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": user},
    ]


# ---------------------------------------------------------------------------
# Chat backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChatConfig:
    """Endpoint settings; the key itself stays in the environment."""

    base_url: str
    model: str
    temperature: float = 0.0
    timeout_secs: float = 60.0


_FENCED = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)


def _extract_json(content: str) -> dict:
    m = _FENCED.search(content)
    candidate = m.group(1) if m else content
    try:
        obj = json.loads(candidate.strip())
    except json.JSONDecodeError as exc:
        raise OracleError(f"reply is not fenced JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise OracleError("reply JSON must be an object")
    return obj


def _crop_index(name, crop_names: tuple[str, ...]) -> int:
    if name not in crop_names:
        raise OracleError(f"unknown crop {name!r}; expected one of {', '.join(crop_names)}")
    return crop_names.index(name)


def parse_chat_content(req: OracleRequest, content: str) -> OracleResponse:
    """Parse the model's reply for the request's kind. Anything that does not
    fit the structured contract is an error, never a silent default."""
    obj = _extract_json(content)
    obs = req.observation
    if req.kind == ACTION_SELECTION:
        if "action" not in obj:
            raise OracleError("action_selection reply lacks an 'action' field")
        return OracleResponse(action=_crop_index(obj["action"], obs.crop_names))
    utterance = obj.get("utterance")
    if not isinstance(utterance, str) or not utterance:
        raise OracleError("discussion reply needs a nonempty 'utterance'")
    raw_criticisms = obj.get("criticisms", [])
    if not isinstance(raw_criticisms, list):
        raise OracleError("'criticisms' must be a list")
    criticisms = []
    for item in raw_criticisms:
        if not isinstance(item, dict) or "target" not in item or "crop" not in item:
            raise OracleError("each criticism needs 'target' and 'crop'")
        target_name = item["target"]
        if target_name not in obs.agent_names:
            raise OracleError(f"unknown criticism target {target_name!r}")
        target = obs.agent_names.index(target_name)
        if target == obs.agent_index:
            raise OracleError(f"criticism targets the speaker {target_name!r}")
        crop = _crop_index(item["crop"], obs.crop_names)
        criticisms.append(Criticism(obs.agent_index, target, crop, None, utterance))
    return OracleResponse(utterance=utterance, criticisms=tuple(criticisms))


def chat_oracle(
    req: OracleRequest,
    config: ChatConfig,
    *,
    post=None,
    sleep=time.sleep,
) -> OracleResponse:
    """One chat-completion round trip with up to CHAT_ATTEMPTS tries.

    Transport failures, 5xx statuses, and parse failures retry with 1s/2s
    backoff; any 4xx aborts immediately (auth problems are not transient).
    `post` and `sleep` are injectable for tests; `post=None` means
    `requests.post`, and `requests` is imported here, on the chat path only.
    """
    import requests
    post = requests.post if post is None else post
    api_key = os.environ.get(API_KEY_VAR)
    if not api_key:
        raise OracleError(f"chat oracle needs the {API_KEY_VAR} environment variable")
    url = config.base_url.rstrip("/") + "/chat/completions"
    body = {
        "model": config.model,
        "messages": build_messages(req),
        "temperature": config.temperature,
    }
    last_error = "no attempt made"
    for attempt in range(CHAT_ATTEMPTS):
        if attempt:
            sleep(float(2 ** (attempt - 1)))
        try:
            resp = post(
                url,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=config.timeout_secs,
            )
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
            continue
        if resp.status_code == 401:
            raise OracleError(f"chat endpoint returned 401 (unauthorized); check {API_KEY_VAR}")
        if 400 <= resp.status_code < 500:
            raise OracleError(f"chat endpoint returned {resp.status_code}: {resp.text}")
        if resp.status_code >= 500:
            last_error = f"server error {resp.status_code}: {resp.text}"
            continue
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            last_error = f"malformed completion body: {exc}; raw: {resp.text}"
            continue
        try:
            return parse_chat_content(req, content)
        except OracleError as exc:
            last_error = f"{exc}; raw: {content}"
            continue
    raise OracleError(f"chat oracle failed after {CHAT_ATTEMPTS} attempts; last: {last_error}")


# ---------------------------------------------------------------------------
# Chat-backed agent handles
# ---------------------------------------------------------------------------


class ChatBaselineAgent:
    """Module-free focal agent whose actions AND words come from `ask`, one
    `OracleRequest -> OracleResponse` call per query."""

    def __init__(self, index: int, name: str, ask):
        self.index = index
        self.profile = AgentProfile(name=name, kind="baseline")
        self._ask = ask

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
        resp = self._ask(OracleRequest(DISCUSSION_UTTERANCE, self.profile, obs))
        return resp.utterance, resp.criticisms

    def act(self, obs: Observation) -> int:
        resp = self._ask(OracleRequest(ACTION_SELECTION, self.profile, obs))
        return resp.action


class ChatNormativeAgent:
    """A voice on top of the roster's normative agent, `module`.

    The module stays in charge: it learns, picks the crop, and decides the
    structured criticisms. `ask` supplies only the utterance text, so
    sanction accounting never depends on model output.
    """

    def __init__(self, module: NormativeAgent, name: str, ask):
        self.index = module.index
        self.profile = AgentProfile(name=name, kind="normative")
        self._module = module
        self._ask = ask

    @property
    def state(self) -> NormativeState:
        return self._module.state

    def discuss(self, obs: Observation) -> tuple[str, tuple[Criticism, ...]]:
        _, criticisms = self._module.discuss(obs)
        resp = self._ask(OracleRequest(DISCUSSION_UTTERANCE, self.profile, obs))
        return resp.utterance, criticisms

    def act(self, obs: Observation) -> int:
        return self._module.act(obs)
