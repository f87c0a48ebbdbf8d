"""The crash-safe log under both journals: one contract, tested once.

:class:`AppendLog` carries the header, append, truncated-tail tolerance and
atomic rewrite of the exploration run journal and the cluster job journal;
:func:`atomic_write` also stores every result-cache entry.  The journal
classes are record codecs on top, so the crash-safety properties are
checked here against the log itself and, where the journals once differed,
against both journals.

``data/`` holds one journal of each kind written by the 1.6.0 journal
code (``start`` plus appends, before the journals shared this log): the
on-disk format must keep loading unchanged.
"""

import json
import os
from pathlib import Path

import pytest

from repro import __version__
from repro.cluster import JobJournal
from repro.explore import Candidate, Evaluation, JournalMismatchError
from repro.explore.journal import RunJournal
from repro.runtime import SimJob
from repro.runtime.appendlog import AppendLog, JournalError
from repro.workloads import GemmWorkload

DATA = Path(__file__).parent / "data"
RUN_HEADER = {"seed": 0, "strategy": "random", "space_digest": "abc", "budget": 4}


def evaluation(index):
    return Evaluation(
        candidate=Candidate.from_dict({"axis0": index}),
        metrics={"cycles": float(index)},
        job_hashes=[f"hash{index}"],
    )


def job(tag):
    return SimJob(
        workload=GemmWorkload(name=f"fixture_{tag}", m=8, n=8, k=8), seed=tag
    )


def identity(record, _header):
    return record


def started_log(path, records=2):
    log = AppendLog(path, format=3)
    log.start({"name": "test"})
    for index in range(records):
        log.append({"index": index})
    return log


def run_journal(path):
    """A run journal holding one evaluation."""
    journal = RunJournal(path)
    journal.start(RUN_HEADER)
    journal.append(evaluation(0))
    return journal


def job_journal(path):
    """A job journal holding one submission."""
    journal = JobJournal(path)
    journal.start()
    journal.record_submission(job(0).job_hash(), job(0))
    return journal


JOURNALS = pytest.mark.parametrize(
    "make_journal", [run_journal, job_journal], ids=["RunJournal", "JobJournal"]
)


def add_lines(path, *lines):
    with path.open("a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


class TestDurableAppend:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_every_append_is_fsynced(self, tmp_path, fsyncs):
        started_log(tmp_path / "log.jsonl", records=3)
        assert len(fsyncs) == 3

    @JOURNALS
    def test_journal_appends_are_fsynced(self, tmp_path, fsyncs, make_journal):
        make_journal(tmp_path / "journal.jsonl")  # start + one append
        assert len(fsyncs) == 1


class TestLoad:
    def test_round_trip(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl")
        header, records, dropped = log.load(identity)
        assert header == {"type": "header", "format": 3, "name": "test"}
        assert records == [{"index": 0}, {"index": 1}]
        assert dropped == 0

    def test_decode_sees_the_header(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl", records=1)
        _header, records, _dropped = log.load(
            lambda record, header: (header["name"], record["index"])
        )
        assert records == [("test", 0)]

    def test_truncated_final_line_is_dropped(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl")
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write('{"index": ')  # cut off mid-append, no newline
        _header, records, dropped = log.load(identity)
        assert records == [{"index": 0}, {"index": 1}]
        assert dropped == 1

    def test_undecodable_final_line_is_dropped(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl")

        def decode(record, _header):
            return int(record["index"])

        add_lines(log.path, '{"other": 1}')
        _header, records, dropped = log.load(decode)
        assert (records, dropped) == ([0, 1], 1)

    def test_damage_in_the_middle_raises(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl")
        add_lines(log.path, "garbage{{{", '{"index": 2}')
        with pytest.raises(JournalError, match="line 4"):
            log.load(identity)

    def test_blank_lines_are_skipped(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl", records=1)
        add_lines(log.path, "", '{"index": 1}')
        _header, records, dropped = log.load(identity)
        assert (len(records), dropped) == (2, 0)


class TestHeaderChecks:
    @pytest.mark.parametrize(
        "first_line",
        [
            "not json",
            "[1, 2]",
            json.dumps({"type": "record", "format": 3}),
            json.dumps({"type": "header", "format": 999}),
            json.dumps({"type": "header"}),
        ],
        ids=["garbage", "not-an-object", "not-a-header", "wrong-format", "no-format"],
    )
    def test_unusable_header_raises(self, tmp_path, first_line):
        path = tmp_path / "log.jsonl"
        path.write_text(first_line + "\n", encoding="utf-8")
        with pytest.raises(JournalError):
            AppendLog(path, format=3).load(identity)

    @pytest.mark.parametrize("size", ["absent", "empty"])
    def test_missing_or_empty_log_raises(self, tmp_path, size):
        path = tmp_path / "log.jsonl"
        if size == "empty":
            path.touch()
        log = AppendLog(path, format=3)
        assert not log.exists()
        with pytest.raises(JournalError):
            log.load(identity)

    def test_start_and_rewrite_own_the_type_and_format_keys(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl", format=3)
        log.start({"type": "stale", "format": 1, "name": "test"})
        assert log.load(identity)[0] == {"type": "header", "format": 3, "name": "test"}
        log.rewrite({"type": "stale", "format": 1}, [])
        assert log.load(identity)[0] == {"type": "header", "format": 3}

    def test_journal_errors_share_one_type(self):
        import repro.cluster
        import repro.explore

        assert repro.explore.JournalError is JournalError
        assert repro.cluster.JournalError is JournalError
        assert issubclass(JournalMismatchError, JournalError)
        assert issubclass(JournalError, ValueError)


class TestNonObjectRecords:
    """Valid JSON that is not an object is an unreadable record."""

    @JOURNALS
    def test_mid_file_raises_journal_error(self, tmp_path, make_journal):
        journal = make_journal(tmp_path / "journal.jsonl")
        header, record = journal.path.read_text(encoding="utf-8").splitlines()
        journal.path.write_text(
            "\n".join([header, "[1, 2]", record]) + "\n", encoding="utf-8"
        )
        with pytest.raises(JournalError, match="line 2"):
            journal.load()

    @JOURNALS
    def test_final_line_is_dropped(self, tmp_path, make_journal):
        journal = make_journal(tmp_path / "journal.jsonl")
        add_lines(journal.path, "7")
        assert journal.load().dropped_lines == 1


class TestAtomicRewrite:
    def test_rewrite_replaces_the_log(self, tmp_path):
        log = started_log(tmp_path / "log.jsonl")
        log.rewrite({"name": "compacted"}, [{"index": 9}])
        header, records, _dropped = log.load(identity)
        assert header["name"] == "compacted"
        assert records == [{"index": 9}]
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]

    def test_failed_rename_keeps_the_original_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        log = started_log(tmp_path / "log.jsonl")
        before = log.path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            log.rewrite({"name": "compacted"}, [])
        assert log.path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestJournalsWrittenBefore:
    """Journals written by the 1.6.0 code load with the shared log."""

    def test_run_journal_loads(self):
        contents = RunJournal(DATA / "run_journal_v1.jsonl").load()
        assert contents.dropped_lines == 0
        assert {k: contents.header[k] for k in RUN_HEADER} == RUN_HEADER
        assert [
            (e.candidate.key(), e.metrics, e.job_hashes) for e in contents.evaluations
        ] == [
            (evaluation(i).candidate.key(), {"cycles": float(i)}, [f"hash{i}"])
            for i in range(3)
        ]
        assert all(e.from_journal for e in contents.evaluations)

    def test_run_journal_is_written_byte_for_byte_the_same(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.start(RUN_HEADER)
        for index in range(3):
            journal.append(evaluation(index))
        fixture = (DATA / "run_journal_v1.jsonl").read_bytes()
        assert journal.path.read_bytes() == fixture

    def test_job_journal_loads(self):
        done, pending, cached = (job(tag).job_hash() for tag in range(3))
        contents = JobJournal(DATA / "job_journal_v1.jsonl").load()
        assert contents.dropped_lines == 0
        assert contents.header["note"] == "fixture"
        assert list(contents.submitted) == [done, pending, cached]
        assert list(contents.completed) == [done, cached]
        assert contents.completed[cached] is None
        # After a version bump the pickles are foreign and dropped by design.
        if contents.header["package_version"] == __version__:
            assert list(contents.unfinished()) == [pending]
            assert contents.unfinished()[pending].job_hash() == pending
            assert contents.completed[done].job_hash == done

    def test_job_journal_records_keep_their_fields(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start({"note": "fixture"})
        for tag in range(3):
            journal.record_submission(job(tag).job_hash(), job(tag))
        fixture = (DATA / "job_journal_v1.jsonl").read_text().splitlines()
        written = journal.path.read_text().splitlines()
        assert [sorted(json.loads(line)) for line in written] == [
            sorted(json.loads(line)) for line in fixture[: len(written)]
        ]
