import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eraseg.corpus import RawCorpus, RawSentence
from eraseg.errors import DataError
from eraseg.lexicon import (
    V_B,
    V_E,
    V_M,
    V_S,
    EraLexicon,
    build_lexicon,
    extract_candidates,
    load_lexicon,
)

from _oracles import pad_candidates

ALPHA = "abcdef"


def corpus_of(word_lists, era_id=0):
    return RawCorpus(
        sentences=tuple(RawSentence(tuple(ws), era_id) for ws in word_lists),
        source_name="test",
    )


def brute_force_candidates(chars, lexicon, max_ngram):
    """Oracle: scan every window with a double loop."""
    out = [[] for _ in chars]
    t = len(chars)
    for start in range(t):
        for end in range(start + 1, min(start + max_ngram, t) + 1):
            word = "".join(chars[start:end])
            if word not in lexicon.word_ids:
                continue
            wid = lexicon.word_ids[word]
            for pos in range(start, end):
                if end - start == 1:
                    vc = V_S
                elif pos == start:
                    vc = V_B
                elif pos == end - 1:
                    vc = V_E
                else:
                    vc = V_M
                cand = (wid, vc)
                if cand not in out[pos]:
                    out[pos].append(cand)
    return out


class TestBuildLexicon:
    def test_word_types_always_internal(self):
        # One sentence: types {ab, c}, no bigram reaches the count threshold.
        lex = build_lexicon(corpus_of([["ab", "c"]]), era_id=0, ngram_min_count=10)
        assert lex.id_to_word == ("ab", "c")

    def test_frequent_bigram_joins(self):
        sents = [["a", "b"]] * 10
        lex = build_lexicon(corpus_of(sents), era_id=0, ngram_min_count=10)
        assert "ab" in lex.word_ids

    def test_infrequent_bigram_stays_out(self):
        sents = [["a", "b"]] * 9
        lex = build_lexicon(corpus_of(sents), era_id=0, ngram_min_count=10)
        assert "ab" not in lex.word_ids

    def test_ngrams_cross_word_boundaries(self):
        sents = [["ab", "cd"]] * 10
        lex = build_lexicon(corpus_of(sents), era_id=0, ngram_min_count=10)
        assert "bc" in lex.word_ids
        assert "bcd" in lex.word_ids

    def test_only_named_era_counted(self):
        sents = tuple(RawSentence(("a", "b"), 0) for _ in range(10))
        other = tuple(RawSentence(("x", "y"), 1) for _ in range(10))
        corpus = RawCorpus(sents + other, "test")
        lex0 = build_lexicon(corpus, era_id=0, ngram_min_count=10)
        assert "xy" not in lex0.word_ids
        assert "x" not in lex0.word_ids

    def test_long_types_rejected_by_max_ngram(self):
        lex = build_lexicon(corpus_of([["abcdef", "a"]]), era_id=0, ngram_min_count=10, max_ngram=5)
        assert "abcdef" not in lex.word_ids
        assert "a" in lex.word_ids

    def test_deterministic_ids(self):
        lex1 = build_lexicon(corpus_of([["ab", "c"], ["c", "ab"]]), 0, 10)
        lex2 = build_lexicon(corpus_of([["c", "ab"], ["ab", "c"]]), 0, 10)
        assert lex1.word_ids == lex2.word_ids
        assert lex1.serialize() == lex2.serialize()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        lex = build_lexicon(corpus_of([["ab", "c", "de"]], era_id=2), era_id=2, ngram_min_count=10)
        path = tmp_path / "era2.dict"
        lex.save(path)
        loaded = load_lexicon(path, era_id=2)
        assert loaded.id_to_word == lex.id_to_word
        assert loaded.word_ids == lex.word_ids
        assert loaded.serialize() == lex.serialize()

    @pytest.mark.parametrize("word", ["", "a\nb", "\n"])
    def test_word_the_codec_cannot_carry_rejected(self, word):
        with pytest.raises(DataError, match="era 0 lexicon"):
            EraLexicon.from_words(0, ["ab", word])

    def test_crlf_file_loads_as_its_lf_twin(self, tmp_path):
        crlf, lf = tmp_path / "crlf.dict", tmp_path / "lf.dict"
        crlf.write_bytes("山水\r\n金\r\n".encode("utf-8"))
        lf.write_bytes("山水\n金\n".encode("utf-8"))
        assert load_lexicon(crlf, era_id=0) == load_lexicon(lf, era_id=0)

    def test_words_ending_in_cr_round_trip(self, tmp_path):
        lex = EraLexicon.from_words(0, ["\r", "a\r", "b", "c\rd"])
        lex.save(tmp_path / "cr.dict")
        assert load_lexicon(tmp_path / "cr.dict", era_id=0) == lex

    def test_save_bytes_stable(self, tmp_path):
        lex = build_lexicon(corpus_of([["ab", "c"]]), era_id=0, ngram_min_count=10)
        p1, p2 = tmp_path / "a.dict", tmp_path / "b.dict"
        lex.save(p1)
        lex.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


def assert_slots_equal(got, want):
    for got_array, want_array in zip(got, want, strict=True):
        np.testing.assert_array_equal(got_array, want_array, strict=True)


def row(slots, i):
    """Position i's (word id, value class) pairs, in slot order."""
    keep = slots.mask[i]
    return list(zip(slots.word_ids[i][keep].tolist(), slots.classes[i][keep].tolist()))


@st.composite
def sentence_and_era_words(draw):
    """A sentence of 1 to 40 characters over 3 letters, often periodic, and the
    words of 1 to 4 lexicons, drawn at random or as windows of the sentence.

    Repeated windows make duplicate V_M candidates occur: "aaaa" in
    "aaaaa" covers position 2 twice.
    """
    t_len = draw(st.integers(min_value=1, max_value=40))
    unit = draw(st.text(alphabet="abc", min_size=1, max_size=2))
    periodic = st.just((unit * t_len)[:t_len])
    sentence = draw(st.text(alphabet="abc", min_size=t_len, max_size=t_len) | periodic)
    starts, lengths = st.integers(0, t_len - 1), st.integers(1, 6)
    window = st.builds(lambda s, n: sentence[s : s + n], starts, lengths)
    words = st.text(alphabet="abc", min_size=1, max_size=6) | window
    return sentence, draw(st.lists(st.lists(words, max_size=12), min_size=1, max_size=4))


class TestExtractCandidates:
    def lex(self, words):
        return EraLexicon.from_words(0, words)

    def candidates(self, chars, lex, max_ngram=5):
        (slots,) = extract_candidates(chars, [lex], max_ngram)
        return slots

    def test_middle_char_of_three(self):
        # Sentence "abc", words {ab, bc, abc}: position 1 sees all three.
        lex = self.lex(["ab", "bc", "abc"])
        cands = self.candidates(list("abc"), lex)
        classes = {(lex.id_to_word[w], vc) for w, vc in row(cands, 1)}
        assert classes == {("ab", V_E), ("bc", V_B), ("abc", V_M)}

    def test_single_char_word(self):
        lex = self.lex(["a"])
        cands = self.candidates(list("a"), lex)
        assert row(cands, 0) == [(lex.word_ids["a"], V_S)]

    def test_empty_lexicon_all_empty(self):
        lex = self.lex([])
        assert_slots_equal(self.candidates(list("abc"), lex), pad_candidates([[], [], []]))

    def test_no_duplicate_pairs(self):
        # "aa" with word "a": both occurrences hit position-specific sets once.
        lex = self.lex(["a", "aa"])
        cands = self.candidates(list("aaa"), lex)
        for i in range(3):
            assert len(row(cands, i)) == len(set(row(cands, i)))

    def test_order_by_start_then_length(self):
        lex = self.lex(["b", "ab", "bc", "abc"])
        cands = self.candidates(list("abc"), lex)
        names = [lex.id_to_word[w] for w, _ in row(cands, 1)]
        assert names == ["ab", "abc", "b", "bc"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet=ALPHA, min_size=1, max_size=4), max_size=12),
        st.text(alphabet=ALPHA, min_size=1, max_size=10),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_brute_force(self, words, sentence, max_ngram):
        # Order matters: it fixes the key rows gathered for attention and
        # hence every downstream sum, so compare lists, not sets.
        lex = self.lex(words)
        chars = list(sentence)
        got = self.candidates(chars, lex, max_ngram=max_ngram)
        assert_slots_equal(got, pad_candidates(brute_force_candidates(chars, lex, max_ngram)))

    @settings(max_examples=200, deadline=None)
    @given(sentence_and_era_words(), st.integers(min_value=1, max_value=6))
    @example(("aaaaa", [["aaaa"], ["a", "aa"]]), 4)
    def test_one_scan_matches_brute_force_for_every_era(self, drawn, max_ngram):
        sentence, era_words = drawn
        lexicons = [EraLexicon.from_words(d, words) for d, words in enumerate(era_words)]
        chars = list(sentence)
        got = extract_candidates(chars, lexicons, max_ngram)
        assert len(got) == len(lexicons)
        for slots, lex in zip(got, lexicons):
            want = brute_force_candidates(chars, lex, max_ngram)
            assert_slots_equal(slots, pad_candidates(want))

    def test_max_ngram_limits_window(self):
        lex = self.lex(["abcde", "ab"])
        cands = self.candidates(list("abcde"), lex, max_ngram=2)
        found = {lex.id_to_word[w] for w in cands.word_ids[cands.mask].tolist()}
        assert found == {"ab"}
