package demo.skip;
import java.util.List
import java.io.*;

public class SkipPaths extends Base, Other
{
    private List<String> names = new ArrayList<String>();
    int count = -1, total;

    @Override
    public String toString()
    {
        return "SkipPaths";
    }

    public int pick(int k, String s[])
    {
        switch (k)
        {
            case 0:
                return 1;
            default:
                k++;
        }
        Runnable r = () -> count++;
        x = (((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((1)))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))));
        for (int i = 0; i < k; i++) ;
        do { --k; } while (k > 0);
        try { names.add(s); } catch (Exception e) { } finally { close(); }
        if (s == t) return k; else total = new Box(k).size() * 2;
        return this.count;
    }
}
