import pytest
from hypothesis import given, strategies as st

from _oracles import split_long_recursive
from eraseg.corpus import (
    LAT_TOKEN,
    NUM_TOKEN,
    PUNC_TOKEN,
    TAGS,
    RawSentence,
    Vocab,
    bmes_to_words,
    _split_long,
    load_corpus,
    make_synthetic_corpus,
    read_lines,
    preprocess,
    words_to_bmes,
)
from eraseg.errors import DataError

CJK = "山水火木金土天地人口手足"


def word_lists(min_words=1, max_words=8, max_word_len=4):
    word = st.text(alphabet=CJK, min_size=1, max_size=max_word_len)
    return st.lists(word, min_size=min_words, max_size=max_words)


class TestWordsToBmes:
    def test_mixed_lengths(self):
        assert words_to_bmes(["等待", "谁", "来"]) == ("B", "E", "S", "S")

    def test_single_char_word(self):
        assert words_to_bmes(["a"]) == ("S",)

    def test_three_char_word(self):
        assert words_to_bmes(["abc"]) == ("B", "M", "E")

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError, match="empty sentence"):
            words_to_bmes([])

    def test_empty_word_rejected(self):
        with pytest.raises(DataError):
            words_to_bmes(["ab", ""])

    @given(word_lists())
    def test_length_matches_char_count(self, words):
        tags = words_to_bmes(words)
        assert len(tags) == sum(len(w) for w in words)
        assert all(t in TAGS for t in tags)


class TestBmesToWords:
    def test_valid_inverse(self):
        assert bmes_to_words(list("等待谁"), ["B", "E", "S"]) == ("等待", "谁")

    def test_repair_boundary_before_b(self):
        assert bmes_to_words(["a", "b"], ["B", "B"]) == ("a", "b")

    def test_repair_at_sentence_end(self):
        assert bmes_to_words(["a", "b", "c"], ["B", "M", "M"]) == ("abc",)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            bmes_to_words(["a"], ["B", "E"])

    def test_unknown_tag_rejected(self):
        with pytest.raises(DataError, match="unknown tag"):
            bmes_to_words(["a"], ["X"])

    @given(word_lists())
    def test_round_trip_identity(self, words):
        tags = words_to_bmes(words)
        chars = [c for w in words for c in w]
        assert bmes_to_words(chars, tags) == tuple(words)

    @given(st.lists(st.sampled_from(TAGS), min_size=1, max_size=12))
    def test_repair_always_concatenates_to_input(self, tags):
        chars = [CJK[i % len(CJK)] for i in range(len(tags))]
        words = bmes_to_words(chars, tags)
        assert "".join(words) == "".join(chars)


class TestValidity:
    """Valid tag sequences are exactly those bmes_to_words keeps as they are."""

    @staticmethod
    def repaired(tags):
        chars = [CJK[i % len(CJK)] for i in range(len(tags))]
        return words_to_bmes(bmes_to_words(chars, tags))

    def test_accepts_generated_sequences(self):
        tags = words_to_bmes(["等待", "谁", "来"])
        assert self.repaired(tags) == tags

    @pytest.mark.parametrize(
        "tags",
        [("B",), ("M", "E"), ("S", "M", "E"), ("B", "S"), ("E",), ("B", "E", "M")],
    )
    def test_rejects_broken_sequences(self, tags):
        assert self.repaired(tags) != tags


class TestPreprocess:
    def test_digit_run_collapses(self):
        assert preprocess("等待2021年") == f"等待{NUM_TOKEN}年"

    def test_latin_run_collapses(self):
        assert preprocess("abc等") == f"{LAT_TOKEN}等"

    def test_punctuation_per_character(self):
        assert preprocess("好,,") == f"好{PUNC_TOKEN}{PUNC_TOKEN}"

    def test_fullwidth_forms(self):
        assert preprocess("ＡＢ１２。") == f"{LAT_TOKEN}{NUM_TOKEN}{PUNC_TOKEN}"

    def test_separate_runs_get_separate_tokens(self):
        assert preprocess("ab3cd") == f"{LAT_TOKEN}{NUM_TOKEN}{LAT_TOKEN}"

    @given(st.text(alphabet=CJK + "abcXY019.,?!。，", max_size=30))
    def test_idempotent(self, s):
        once = preprocess(s)
        assert preprocess(once) == once

    @given(st.text(alphabet=CJK + "abcXY019.,?!。，", max_size=30))
    def test_token_count_nonincreasing(self, s):
        assert len(preprocess(s)) <= len(s)


class TestLoadCorpus(object):
    def test_basic_load(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("等待 谁\n", encoding="utf-8")
        corpus = load_corpus(p, era_id=3)
        assert len(corpus) == 1
        assert corpus.sentences[0] == RawSentence(("等待", "谁"), 3)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("", encoding="utf-8")
        assert len(load_corpus(p, era_id=0)) == 0

    def test_blank_interior_line_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("等 待\n\n谁 来\n", encoding="utf-8")
        assert len(load_corpus(p, era_id=0)) == 2

    def test_malformed_utf8_names_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes("好 的\n".encode("utf-8") + b"\xff\xfe\n")
        with pytest.raises(DataError, match=":2:"):
            load_corpus(p, era_id=0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_corpus(tmp_path / "nope.txt", era_id=0)

    def test_lines_split_on_newline_only(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("山\x0c水 天\x85地\u2028人\r\n\n口\x1c手\x0b足\n", encoding="utf-8")
        assert read_lines(p) == ["山\x0c水 天\x85地\u2028人\r", "", "口\x1c手\x0b足"]
        corpus = load_corpus(p, era_id=0)
        assert [s.words for s in corpus.sentences] == [
            ("山\x0c水", "天\x85地\u2028人"),
            ("口\x1c手\x0b足",),
        ]

    def test_long_sentence_split_at_punctuation(self, tmp_path):
        words = ["天地"] * 30 + ["。"] + ["山水"] * 40
        p = tmp_path / "c.txt"
        p.write_text(" ".join(words) + "\n", encoding="utf-8")
        corpus = load_corpus(p, era_id=0, max_len=100)
        assert len(corpus) == 2
        assert corpus.sentences[0].words[-1] == PUNC_TOKEN
        joined = [w for s in corpus.sentences for w in s.words]
        assert joined == ["天地"] * 30 + [PUNC_TOKEN] + ["山水"] * 40

    def test_very_long_line_splits_without_recursion(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text(" ".join(["山"] * 1200) + "\n", encoding="utf-8")
        corpus = load_corpus(p, era_id=0, max_len=1)
        assert len(corpus) == 1200
        assert all(s.words == ("山",) for s in corpus.sentences)

    def test_word_longer_than_max_len_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("山 水火木 金\n", encoding="utf-8")
        with pytest.raises(DataError, match="single word longer"):
            load_corpus(p, era_id=0, max_len=2)

    @given(
        st.lists(st.sampled_from(["山", "水火", "木金土", PUNC_TOKEN, "天" + PUNC_TOKEN]), max_size=40),
        st.integers(min_value=3, max_value=12),
    )
    def test_splits_match_recursive_reference(self, words, max_len):
        assert _split_long(words, max_len) == split_long_recursive(words, max_len, PUNC_TOKEN)


class TestVocab:
    def test_reserved_ids_and_determinism(self):
        v1 = Vocab("cab")
        v2 = Vocab("abc")
        assert v1.encode(["a", "b", "c"]) == v2.encode(["a", "b", "c"])
        assert min(v1.encode(["a", "b", "c"])) >= Vocab.N_RESERVED

    def test_unknown_maps_to_unk_never_cls(self):
        v = Vocab("ab")
        assert v.encode(["z"]) == [Vocab.UNK]
        assert Vocab.CLS not in v.encode(list("abzab"))

    def test_id_order_stable(self):
        assert Vocab("ab").chars_in_id_order() == Vocab("ba").chars_in_id_order()
        assert Vocab("ab").chars_in_id_order() != Vocab("ac").chars_in_id_order()


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a = make_synthetic_corpus(7, 50, 20)
        b = make_synthetic_corpus(7, 50, 20)
        assert a == b

    def test_different_seed_differs(self):
        assert make_synthetic_corpus(7, 50, 20) != make_synthetic_corpus(8, 50, 20)

    def test_cross_era_bigram_ambiguity(self):
        train, _ = make_synthetic_corpus(7, 400, 50)
        era0_words = {w for s in train.sentences if s.era_id == 0 for w in s.words}
        era1_words = {w for s in train.sentences if s.era_id == 1 for w in s.words}
        era1_adjacent_singles = set()
        for s in train.sentences:
            if s.era_id != 1:
                continue
            for a, b in zip(s.words, s.words[1:]):
                if len(a) == 1 and len(b) == 1:
                    era1_adjacent_singles.add(a + b)
        # Some character bigrams are one word in era 0 but written as two
        # adjacent single-character words in era 1, and never joined there.
        ambiguous = {
            w for w in era0_words
            if len(w) == 2 and w not in era1_words and w in era1_adjacent_singles
        }
        assert len(ambiguous) >= 10

    def test_test_set_has_oov_types(self):
        train, test = make_synthetic_corpus(7, 2000, 400)
        train_types = {w for s in train.sentences for w in s.words}
        test_types = {w for s in test.sentences for w in s.words}
        assert len(test_types - train_types) > 0

    def test_both_eras_present(self):
        train, test = make_synthetic_corpus(7, 10, 4)
        assert {s.era_id for s in train.sentences} == {0, 1}
        assert {s.era_id for s in test.sentences} == {0, 1}

    def test_size_validation(self):
        with pytest.raises(DataError):
            make_synthetic_corpus(7, 0, 5)
