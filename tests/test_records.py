from modeguide import records
from modeguide.records import RunRecord, cache_dir, cache_get, cache_put


def test_cache_disabled_without_env(monkeypatch):
    monkeypatch.delenv("MODEGUIDE_CACHE", raising=False)
    assert cache_dir() is None
    cache_put({"k": 1}, {"v": 2})
    assert cache_get({"k": 1}) is None


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("MODEGUIDE_CACHE", str(tmp_path))
    key = {"what": "unit", "a": 1.5}
    assert cache_get(key) is None
    cache_put(key, {"values": [1.25, 2.5]})
    assert cache_get(key) == {"values": [1.25, 2.5]}
    assert cache_get({"what": "unit", "a": 2.0}) is None


def test_run_record_roundtrip_preserves_timestamp():
    rec = RunRecord("single", {"a": 1.0}, {"eigenvalues": [0.85]}, {"modes": 40})
    clone = RunRecord.from_json(rec.to_json())
    assert clone == rec
    assert clone.created == rec.created


def test_half_written_cache_entry_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("MODEGUIDE_CACHE", str(tmp_path))
    key = {"what": "unit", "a": 1.5}
    cache_put(key, {"values": [1.25, 2.5]})
    (entry,) = tmp_path.iterdir()
    text = entry.read_text()
    for broken in (text[: len(text) // 2], "", "[1, 2]", '{"key": 1}'):
        entry.write_text(broken)
        assert cache_get(key) is None
    cache_put(key, {"values": [1.25, 2.5]})
    assert cache_get(key) == {"values": [1.25, 2.5]}
    # writes go through a renamed temporary file and leave nothing else behind
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_cache_entry_from_another_version_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("MODEGUIDE_CACHE", str(tmp_path))
    key = {"what": "unit", "a": 1.5}
    # an entry written by code with other sources
    monkeypatch.setattr(records, "_source_digest", lambda: "0" * 64)
    cache_put(key, 1.0)
    assert cache_get(key) == 1.0
    monkeypatch.undo()
    monkeypatch.setenv("MODEGUIDE_CACHE", str(tmp_path))
    assert cache_get(key) is None
