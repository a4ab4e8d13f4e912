"""Chat oracle: prompt assembly, reply parsing, transport, chat-backed agents."""
import json

import pytest
import requests

from normsim import agents, institutions, oracle
from normsim.orchard import Criticism, DiscussionEntry, Observation

CROPS3 = institutions.CROP_NAMES[:3]


def sig(inst_id, crop, t=1):
    return institutions.declare(institutions.make_institution(inst_id, crop), t, CROPS3)


def make_obs(signals=(), last_actions=(), agent_index=0, t=1, discussion=(),
             last_criticisms=(), names=("Alice", "John", "Anthony")):
    return Observation(
        t=t,
        agent_index=agent_index,
        agent_names=names,
        crop_names=CROPS3,
        signals=tuple(signals),
        last_step_actions=tuple(last_actions),
        last_step_criticisms=tuple(last_criticisms),
        discussion_so_far=tuple(discussion),
    )


BASELINE = oracle.AgentProfile(name="Alice", kind="baseline")
NORMATIVE = oracle.AgentProfile(name="Alice", kind="normative")


def action_request(obs=None, profile=BASELINE):
    return oracle.OracleRequest(oracle.ACTION_SELECTION, profile, obs or make_obs())


def test_profile_and_request_validation():
    with pytest.raises(ValueError, match="kind"):
        oracle.AgentProfile(name="X", kind="wizard")
    with pytest.raises(ValueError, match="query kind"):
        oracle.OracleRequest("weather_forecast", BASELINE, make_obs())


CONTEXT_GOLDEN = """\
Time step 1.
Institution signals:
  Ophilia's Message: Valued citizens of Skymeadow, let's focus on harvesting apples. It is important for the prosperity of our community!
Last step's harvests:
  Alice: apples
  John: bananas
Criticisms heard last step:
  John criticized Alice for harvesting apples.
Discussion so far this step:
  John: "morning, all"
"""


def test_render_context_golden():
    obs = make_obs(
        signals=(sig(0, 0),),
        last_actions=(0, 1),
        last_criticisms=(
            Criticism(sender=1, target=0, criticized_crop=0, basis=None, text="tsk"),
        ),
        discussion=(DiscussionEntry(speaker=1, text="morning, all"),),
    )
    assert oracle.render_context(obs) == CONTEXT_GOLDEN.rstrip("\n")

    empty = oracle.render_context(make_obs(t=0))
    assert empty.count("  (none)") == 4
    assert empty.startswith("Time step 0.")


def test_build_messages_golden():
    req = action_request()
    messages = oracle.build_messages(req)
    assert [m["role"] for m in messages] == ["system", "user"]
    assert messages[0]["content"] == (
        "You are Alice, a villager of Skymeadow, a farming village whose orchards "
        "grow apples, bananas, peaches. You just arrived and want to fit in with "
        "your neighbors. Remember to be a good citizen."
    )
    assert messages[1]["content"].startswith(oracle.render_context(req.observation))
    assert messages[1]["content"].endswith(
        "Choose one crop to harvest this step from: apples, bananas, peaches.\n"
        "Respond with a single fenced JSON object, exactly like:\n"
        '```json\n{"action": "apples"}\n```'
    )
    # same request, same bytes
    assert oracle.build_messages(req) == messages


def test_role_lines_and_instructions():
    system = oracle.build_messages(action_request(profile=NORMATIVE))[0]["content"]
    assert "whose guidance" in system
    assert system.endswith("Remember to be a good citizen.")

    talk = oracle.OracleRequest(oracle.DISCUSSION_UTTERANCE, BASELINE, make_obs())
    assert '{"utterance": "...", "criticisms":' in oracle.build_messages(talk)[1]["content"]


def test_parse_chat_action():
    req = action_request()
    fenced = 'Here you go.\n```json\n{"action": "bananas"}\n```\nEnjoy!'
    assert oracle.parse_chat_content(req, fenced).action == 1
    assert oracle.parse_chat_content(req, '```\n{"action": "peaches"}\n```').action == 2
    assert oracle.parse_chat_content(req, '{"action": "apples"}').action == 0
    with pytest.raises(oracle.OracleError, match="unknown crop"):
        oracle.parse_chat_content(req, '{"action": "mangoes"}')
    with pytest.raises(oracle.OracleError, match="'action'"):
        oracle.parse_chat_content(req, '{"crop": "apples"}')
    with pytest.raises(oracle.OracleError, match="not fenced JSON"):
        oracle.parse_chat_content(req, "I pick apples!")
    with pytest.raises(oracle.OracleError, match="object"):
        oracle.parse_chat_content(req, "[1, 2]")


def test_parse_chat_discussion():
    obs = make_obs(last_actions=(0, 1, 2), agent_index=0)
    req = oracle.OracleRequest(oracle.DISCUSSION_UTTERANCE, BASELINE, obs)
    content = (
        '```json\n{"utterance": "Neighbors, stick to apples!", '
        '"criticisms": [{"target": "John", "crop": "bananas"}]}\n```'
    )
    resp = oracle.parse_chat_content(req, content)
    assert resp.utterance == "Neighbors, stick to apples!"
    crit = resp.criticisms[0]
    assert (crit.sender, crit.target, crit.criticized_crop, crit.basis) == (0, 1, 1, None)
    assert crit.text == resp.utterance

    assert oracle.parse_chat_content(req, '{"utterance": "hi"}').criticisms == ()
    with pytest.raises(oracle.OracleError, match="utterance"):
        oracle.parse_chat_content(req, '{"utterance": ""}')
    with pytest.raises(oracle.OracleError, match="unknown criticism target"):
        oracle.parse_chat_content(
            req, '{"utterance": "hi", "criticisms": [{"target": "Zed", "crop": "apples"}]}'
        )
    with pytest.raises(oracle.OracleError, match="criticism targets the speaker 'Alice'"):
        oracle.parse_chat_content(
            req, '{"utterance": "hi", "criticisms": [{"target": "Alice", "crop": "apples"}]}'
        )
    with pytest.raises(oracle.OracleError, match="'target' and 'crop'"):
        oracle.parse_chat_content(req, '{"utterance": "hi", "criticisms": [{"target": "John"}]}')
    with pytest.raises(oracle.OracleError, match="list"):
        oracle.parse_chat_content(req, '{"utterance": "hi", "criticisms": "John"}')


# ---------------------------------------------------------------------------
# Chat transport, with injected post/sleep
# ---------------------------------------------------------------------------

CONFIG = oracle.ChatConfig(base_url="https://llm.example/v1/", model="farmhand-1")


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def completion(content):
    return FakeResponse(payload={"choices": [{"message": {"content": content}}]})


def make_post(outcomes):
    calls = []

    def post(url, **kwargs):
        calls.append((url, kwargs))
        out = outcomes[len(calls) - 1]
        if isinstance(out, Exception):
            raise out
        return out

    return post, calls


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("NORMSIM_API_KEY", "sk-normsim-test-000")


def test_chat_success(api_key):
    post, calls = make_post([completion('```json\n{"action": "bananas"}\n```')])
    sleeps = []
    resp = oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=sleeps.append)
    assert resp.action == 1
    assert sleeps == []
    assert len(calls) == 1
    url, kwargs = calls[0]
    assert url == "https://llm.example/v1/chat/completions"
    assert kwargs["headers"] == {"Authorization": "Bearer sk-normsim-test-000"}
    assert kwargs["timeout"] == 60.0
    body = kwargs["json"]
    assert body["model"] == "farmhand-1"
    assert body["temperature"] == 0.0
    assert body["messages"] == oracle.build_messages(action_request())


def test_chat_needs_key(monkeypatch):
    monkeypatch.delenv("NORMSIM_API_KEY", raising=False)
    post, calls = make_post([])
    with pytest.raises(oracle.OracleError, match="NORMSIM_API_KEY"):
        oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=lambda s: None)
    assert calls == []


def test_chat_malformed_thrice(api_key):
    post, calls = make_post([completion("gibberish")] * 3)
    sleeps = []
    with pytest.raises(oracle.OracleError, match="after 3 attempts") as exc:
        oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=sleeps.append)
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]
    assert "gibberish" in str(exc.value)


def test_chat_401_aborts(api_key):
    post, calls = make_post([FakeResponse(status_code=401, text="no")])
    with pytest.raises(oracle.OracleError, match="NORMSIM_API_KEY"):
        oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=lambda s: None)
    assert len(calls) == 1


def test_chat_4xx_aborts(api_key):
    post, calls = make_post([FakeResponse(status_code=404, text="lost")])
    with pytest.raises(oracle.OracleError, match="404"):
        oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=lambda s: None)
    assert len(calls) == 1


def test_chat_5xx_then_success(api_key):
    post, calls = make_post([
        FakeResponse(status_code=503, text="busy"),
        completion('{"action": "apples"}'),
    ])
    sleeps = []
    resp = oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=sleeps.append)
    assert resp.action == 0
    assert len(calls) == 2 and sleeps == [1.0]


def test_chat_transport_retry(api_key):
    post, calls = make_post([
        requests.exceptions.ConnectionError("refused"),
        FakeResponse(status_code=200, payload={"weird": True}),
        completion('{"action": "peaches"}'),
    ])
    sleeps = []
    resp = oracle.chat_oracle(action_request(), CONFIG, post=post, sleep=sleeps.append)
    assert resp.action == 2
    assert len(calls) == 3 and sleeps == [1.0, 2.0]


SELF_CRITICISM = '{"utterance": "Shame on me!", "criticisms": [{"target": "Alice", "crop": "apples"}]}'


def discussion_request():
    obs = make_obs(last_actions=(0, 1, 2), agent_index=0)
    return oracle.OracleRequest(oracle.DISCUSSION_UTTERANCE, BASELINE, obs)


def test_chat_self_criticism_retried_then_fails(api_key):
    post, calls = make_post([completion(SELF_CRITICISM)] * oracle.CHAT_ATTEMPTS)
    sleeps = []
    with pytest.raises(oracle.OracleError, match="criticism targets the speaker"):
        oracle.chat_oracle(discussion_request(), CONFIG, post=post, sleep=sleeps.append)
    assert len(calls) == oracle.CHAT_ATTEMPTS
    assert len(sleeps) == oracle.CHAT_ATTEMPTS - 1


def test_chat_self_criticism_then_valid_reply(api_key):
    valid = '{"utterance": "John, apples!", "criticisms": [{"target": "John", "crop": "bananas"}]}'
    post, calls = make_post([completion(SELF_CRITICISM), completion(valid)])
    sleeps = []
    resp = oracle.chat_oracle(discussion_request(), CONFIG, post=post, sleep=sleeps.append)
    assert [(c.sender, c.target, c.criticized_crop) for c in resp.criticisms] == [(0, 1, 1)]
    assert len(calls) == 2 and sleeps == [1.0]


def scripted_backend(action=2, utterance="Lovely weather for it."):
    """A canned-answer oracle that records every request it is sent."""
    requests_seen = []

    def ask(req):
        requests_seen.append(req)
        if req.kind == oracle.ACTION_SELECTION:
            return oracle.OracleResponse(action=action)
        # a criticism the chat agents' callers must not take on trust
        bogus = Criticism(sender=req.observation.agent_index, target=1,
                          criticized_crop=0, basis=None, text=utterance)
        return oracle.OracleResponse(utterance=utterance, criticisms=(bogus,))

    return ask, requests_seen


def test_chat_agents_with_scripted_backend():
    from normsim import orchard

    cfg = orchard.EnvConfig(
        institutions=(institutions.make_institution(0, crop=0, authoritative=True),),
        num_background=2,
        background_mode="follow_authoritative",
        max_timesteps=4,
        eval_window=2,
    )
    ask, seen = scripted_backend()
    roster = agents.build_roster(cfg, "normative")
    focal = roster[0] = oracle.ChatNormativeAgent(roster[0], "Alice", ask)
    history = orchard.run_episode(cfg, roster)
    # the module drives actions, criticisms and learning; the oracle only talks
    local = orchard.run_episode(cfg, agents.build_roster(cfg, "normative"))
    assert [(s.actions, s.criticisms, s.rewards) for s in history] == [
        (s.actions, s.criticisms, s.rewards) for s in local
    ]
    assert {req.kind for req in seen} == {oracle.DISCUSSION_UTTERANCE}
    assert len(seen) == cfg.max_timesteps
    assert all(
        e.text == "Lovely weather for it." for s in history for e in s.discussion_log if e.speaker == 0
    )
    assert focal.state.weights[0] == 1.0

    # once an institution leads, the module's criticisms are the ones that count
    ask, _ = scripted_backend()
    judge = oracle.ChatNormativeAgent(agents.NormativeAgent(0, [0], sanction_threshold=0.4),
                                      "Alice", ask)
    obs = make_obs(signals=(sig(0, 0),), last_actions=(0, 0, 2), agent_index=0)
    text, crits = judge.discuss(obs)
    assert text == "Lovely weather for it."
    assert crits == agents.sanction_criticisms(judge.state, obs)[1]
    assert [(c.target, c.criticized_crop, c.basis) for c in crits] == [(2, 2, 0)]
    assert judge.act(obs) == agents.NormativeAgent(0, [0], sanction_threshold=0.4).act(obs)

    ask, seen = scripted_backend(action=1, utterance=agents.BASELINE_IDLE)
    newcomer = oracle.ChatBaselineAgent(0, "Alice", ask)
    obs = make_obs(signals=(sig(0, 2),), t=0)
    assert newcomer.act(obs) == 1
    text, crits = newcomer.discuss(obs)
    assert text == agents.BASELINE_IDLE and [c.target for c in crits] == [1]
    assert [req.kind for req in seen] == [oracle.ACTION_SELECTION, oracle.DISCUSSION_UTTERANCE]
