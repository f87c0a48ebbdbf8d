"""JobJournal: durability, tail repair, compaction, version safety."""

import json

import pytest

from repro.cluster import JobJournal, JournalError
from repro.runtime import SimJob, SimOutcome
from repro.workloads import GemmWorkload


def _job(tag=0):
    return SimJob(
        workload=GemmWorkload(name=f"journal_{tag}", m=8, n=8, k=8), seed=tag
    )


def _outcome(job):
    ideal = job.workload.ideal_compute_cycles(
        job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
    )
    return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


class TestJournalBasics:
    def test_start_creates_header(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        assert not journal.exists()
        journal.start({"note": "test"})
        assert journal.exists()
        header = json.loads(journal.path.read_text().splitlines()[0])
        assert header["type"] == "header"
        assert header["note"] == "test"
        assert "package_version" in header

    def test_submission_completion_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        first, second = _job(1), _job(2)
        journal.record_submission(first.job_hash(), first)
        journal.record_submission(second.job_hash(), second)
        journal.record_completion(first.job_hash())
        contents = journal.load()
        assert set(contents.submitted) == {first.job_hash(), second.job_hash()}
        assert set(contents.completed) == {first.job_hash()}
        unfinished = contents.unfinished()
        assert set(unfinished) == {second.job_hash()}
        # The replayed job is reconstructable and hashes identically.
        assert unfinished[second.job_hash()].job_hash() == second.job_hash()

    def test_completion_carries_outcome_when_given(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        job = _job(3)
        journal.record_submission(job.job_hash(), job)
        journal.record_completion(job.job_hash(), _outcome(job))
        contents = journal.load()
        replayed = contents.completed[job.job_hash()]
        assert replayed is not None
        assert replayed.job_hash == job.job_hash()

    def test_load_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            JobJournal(tmp_path / "absent.jsonl").load()

    def test_load_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError):
            JobJournal(path).load()

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "header", "format": 999}) + "\n")
        with pytest.raises(JournalError):
            JobJournal(path).load()


class TestCrashTolerance:
    def test_truncated_tail_is_dropped(self, tmp_path):
        """A crash mid-append at worst loses the final partial record."""
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        job = _job(4)
        journal.record_submission(job.job_hash(), job)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "completed", "key": "abc')  # no newline, cut off
        contents = journal.load()
        assert contents.dropped_lines == 1
        assert set(contents.submitted) == {job.job_hash()}
        assert not contents.completed

    def test_corrupt_middle_record_raises(self, tmp_path):
        """Corruption anywhere but the tail is damage, not a crash artefact."""
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        job = _job(5)
        lines = journal.path.read_text().splitlines()
        lines.append("garbage{{{")
        lines.append(
            json.dumps({"type": "completed", "key": job.job_hash()})
        )
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            journal.load()

    def test_resume_repairs_and_compacts(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        done, pending = _job(6), _job(7)
        journal.record_submission(done.job_hash(), done)
        journal.record_submission(pending.job_hash(), pending)
        journal.record_completion(done.job_hash())  # durable in the cache
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "subm')  # crash artefact
        contents = journal.resume()
        assert set(contents.unfinished()) == {pending.job_hash()}
        # The rewritten file: header + the one unfinished submission; the
        # cache-durable completion and the partial tail are compacted away.
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "header"
        survivor = json.loads(lines[1])
        assert survivor["type"] == "submitted"
        assert survivor["key"] == pending.job_hash()

    def test_resume_keeps_journaled_outcomes(self, tmp_path):
        """Cache-less completions survive compaction with their outcome."""
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        job = _job(8)
        journal.record_submission(job.job_hash(), job)
        journal.record_completion(job.job_hash(), _outcome(job))
        contents = journal.resume()
        assert contents.completed[job.job_hash()] is not None
        # And a second resume still serves it.
        again = journal.resume()
        assert again.completed[job.job_hash()].job_hash == job.job_hash()
        assert not again.unfinished()

    def test_foreign_version_resubmits_everything(self, tmp_path):
        """Pickles from another package version are dropped, not trusted."""
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.start()
        job = _job(9)
        journal.record_submission(job.job_hash(), job)
        lines = journal.path.read_text().splitlines()
        header = json.loads(lines[0])
        header["package_version"] = "0.0.0-other"
        lines[0] = json.dumps(header, sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n")
        contents = journal.load()
        assert contents.undecodable_jobs == 1
        assert contents.submitted[job.job_hash()] is None
        assert not contents.unfinished()  # nothing replayable, nothing lost
