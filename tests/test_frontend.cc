/** Front-end tests: parsing, errors, and print/parse round trips. */

#include <gtest/gtest.h>

#include "frontend/parser.hh"
#include "interp/interp.hh"
#include "ir/printer.hh"
#include "ir/walk.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

TEST(Parser, MinimalProgram)
{
    auto p = parseProgram(R"(
        PROGRAM tiny
          PARAMETER N = 8
          REAL*8 A(N)
          DO I = 1, N
            A(I) = I * 2
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->name, "tiny");
    ASSERT_EQ(p->body.size(), 1u);
    Interpreter interp(*p);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.arrayData(0)[3], 8.0);
}

TEST(Parser, MatmulSourceExecutesLikeBuilder)
{
    auto p = parseProgram(R"(
        PROGRAM matmul_IJK
          PARAMETER N = 10
          REAL*8 A(N,N)
          REAL*8 B(N,N)
          REAL*8 C(N,N)
          DO I = 1, N
            DO J = 1, N
              DO K = 1, N
                C(I,J) = (C(I,J) + A(I,K)*B(K,J))
              ENDDO
            ENDDO
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(runChecksum(*p), runChecksum(makeMatmul("IJK", 10)));
}

TEST(Parser, TriangularAndStep)
{
    auto p = parseProgram(R"(
        PROGRAM tri
          PARAMETER N = 9
          REAL*8 A(N,N)
          DO I = N, 1, -1
            DO J = 1, I
              A(I,J) = SQRT(A(I,J)) + MIN(I, J)
            ENDDO
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->body[0]->step, -1);
    EXPECT_EQ(runChecksum(*p), runChecksum(*p));
}

TEST(Parser, OpaqueSubscripts)
{
    auto p = parseProgram(R"(
        PROGRAM gather
          PARAMETER N = 6
          REAL*8 X(N), IND(N)
          DO I = 1, N
            X([IND(I)]) = X([IND(I)]) + 1.5
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    auto stmts = collectStmts(*p);
    EXPECT_FALSE(stmts[0].node->stmt.write.isAffine());
}

TEST(Parser, RegisterScalars)
{
    auto p = parseProgram(R"(
        PROGRAM reg
          PARAMETER N = 6
          REAL*8 A(N)
          REGISTER R0
          DO I = 1, N
            R0 = R0 + A(I)
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->arrays[1].isRegister);
    Interpreter interp(*p);
    interp.run();
    EXPECT_EQ(interp.stats().memRefs, 6u);  // only the A loads count
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    ParseError err;
    auto p = parseProgram("PROGRAM x\n  REAL*8 A(N)\nEND", &err);
    EXPECT_FALSE(p.has_value());
    EXPECT_EQ(err.line, 2);  // N undeclared
    EXPECT_NE(err.message.find("unknown identifier"),
              std::string::npos);

    auto q = parseProgram("PROGRAM x\n  DO I = 1, 4\nEND", &err);
    EXPECT_FALSE(q.has_value());

    auto r = parseProgram(
        "PROGRAM x\n  PARAMETER N = 4\n  REAL*8 A(N)\n"
        "  A(1,2) = 0\nEND",
        &err);
    EXPECT_FALSE(r.has_value());
    EXPECT_NE(err.message.find("wrong rank"), std::string::npos);
}

TEST(Parser, RejectsElementSizeOutOfRange)
{
    // Sizes outside 1..65535 are positioned parse errors, never a
    // silent narrowing: 4294967304 would truncate to 8 as an int.
    for (const char *size : {"65536", "4294967304", "0", "-4"}) {
        std::string src = std::string("PROGRAM x\n  PARAMETER N = 4\n"
                                      "  REAL*") +
                          size + " A(N)\nEND";
        ParseError err;
        EXPECT_FALSE(parseProgram(src, &err).has_value()) << size;
        EXPECT_EQ(err.line, 3) << size;
        EXPECT_EQ(err.col, 8) << size;  // the size itself
        EXPECT_NE(err.message.find("element size"), std::string::npos)
            << size;
    }
    auto p = parseProgram(
        "PROGRAM x\n  PARAMETER N = 4\n  REAL*65535 A(N)\nEND");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->arrays[0].elemSize, 65535);
}

TEST(Parser, CommentsIgnored)
{
    auto p = parseProgram(R"(
        PROGRAM c  ! the program
          PARAMETER N = 4   ! size
          REAL*8 A(N)
          DO I = 1, N       ! loop
            A(I) = 1        ! body
          ENDDO
        END
    )");
    ASSERT_TRUE(p.has_value());
}

/** Round trip: print -> parse reaches a print fixpoint and preserves
 *  semantics, for every kernel. */
class RoundTrip : public ::testing::TestWithParam<int>
{
};

Program
kernelByIndex(int i)
{
    switch (i) {
      case 0:
        return makeMatmul("IKJ", 8);
      case 1:
        return makeMatmul("JKI", 8);
      case 2:
        return makeCholeskyKIJ(8);
      case 3:
        return makeCholeskyKJI(8);
      case 4:
        return makeAdiScalarized(8);
      case 5:
        return makeAdiFused(8);
      case 6:
        return makeErlebacherDistributed(6);
      case 7:
        return makeGmtry(8);
      case 8:
        return makeSimpleHydro(8);
      case 9:
        return makeVpenta(8);
      default:
        return makeJacobiBadOrder(8);
    }
}

TEST_P(RoundTrip, PrintParsePrintFixpoint)
{
    Program orig = kernelByIndex(GetParam());
    std::string text1 = printProgram(orig);

    ParseError err;
    auto p2 = parseProgram(text1, &err);
    ASSERT_TRUE(p2.has_value()) << err.line << ": " << err.message;
    EXPECT_EQ(runChecksum(*p2), runChecksum(orig));

    std::string text2 = printProgram(*p2);
    auto p3 = parseProgram(text2, &err);
    ASSERT_TRUE(p3.has_value()) << err.line << ": " << err.message;
    EXPECT_EQ(printProgram(*p3), text2);  // fixpoint after one round
}

INSTANTIATE_TEST_SUITE_P(Kernels, RoundTrip, ::testing::Range(0, 11));

TEST(RoundTripMore, TransformedProgramsStillParse)
{
    // Compound output (triangular interchange, fused bodies) must
    // round-trip too.
    ModelParams params;
    params.lineBytes = 32;
    for (int k = 0; k < 11; ++k) {
        Program p = kernelByIndex(k);
        compoundTransform(p, params);
        ParseError err;
        auto q = parseProgram(printProgram(p), &err);
        ASSERT_TRUE(q.has_value())
            << p.name << " " << err.line << ": " << err.message;
        EXPECT_EQ(runChecksum(*q), runChecksum(p)) << p.name;
    }
}

TEST(RoundTripMore, CorpusProgramsRoundTrip)
{
    for (const auto &spec : corpusSpecs()) {
        if (spec.nests == 0 && spec.loops == 0)
            continue;
        Program p = buildCorpusProgram(spec, 8);
        ParseError err;
        auto q = parseProgram(printProgram(p), &err);
        ASSERT_TRUE(q.has_value())
            << spec.name << " " << err.line << ": " << err.message;
        EXPECT_EQ(runChecksum(*q), runChecksum(p)) << spec.name;
    }
}

} // namespace
} // namespace memoria
